#include "sim/interval_export.hh"

#include <stdexcept>

#include "sim/sweep.hh"

namespace cdir {

std::vector<PhaseAggregate>
aggregateByPhase(const Scenario &scenario, std::uint64_t first_access,
                 const IntervalStats &intervals)
{
    std::vector<PhaseAggregate> out;
    if (intervals.intervalAccesses == 0)
        return out;
    for (std::size_t w = 0; w < intervals.windows.size(); ++w) {
        const std::uint64_t start =
            first_access + w * intervals.intervalAccesses;
        const std::string &label = scenario.phaseAt(start).label;
        // Consecutive same-phase windows fold into one occurrence; a
        // new label (or the loop re-entering a phase) opens the next.
        if (out.empty() || out.back().label != label) {
            PhaseAggregate agg;
            agg.label = label;
            agg.firstAccess = start;
            out.push_back(std::move(agg));
        }
        out.back().total.merge(intervals.windows[w]);
        ++out.back().windows;
    }
    return out;
}

namespace {

void
emitWindow(std::FILE *out, std::uint64_t start, const IntervalRecord &rec)
{
    std::fprintf(out,
                 "{\"access\": %llu, \"accesses\": %llu, "
                 "\"cacheMisses\": %llu, \"insertions\": %llu, "
                 "\"forcedEvictions\": %llu, "
                 "\"sharingInvalidations\": %llu, "
                 "\"forcedInvalidations\": %llu, "
                 "\"occupiedEntries\": %llu, \"capacityEntries\": %llu, "
                 "\"occupancy\": %.17g, \"invalidationRate\": %.17g, "
                 "\"avgInsertionAttempts\": %.17g",
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(rec.accesses),
                 static_cast<unsigned long long>(rec.cacheMisses),
                 static_cast<unsigned long long>(rec.insertions),
                 static_cast<unsigned long long>(rec.forcedEvictions),
                 static_cast<unsigned long long>(rec.sharingInvalidations),
                 static_cast<unsigned long long>(rec.forcedInvalidations),
                 static_cast<unsigned long long>(rec.occupiedEntries),
                 static_cast<unsigned long long>(rec.capacityEntries),
                 rec.occupancy(), rec.invalidationRate(),
                 rec.avgInsertionAttempts());
    if (!rec.latency.empty())
        std::fprintf(
            out,
            ", \"latencySamples\": %llu, \"latencyMean\": %.17g, "
            "\"latencyP50\": %llu, \"latencyP99\": %llu, "
            "\"latencyP999\": %llu",
            static_cast<unsigned long long>(rec.latency.count()),
            rec.latency.mean(),
            static_cast<unsigned long long>(rec.latency.percentile(500)),
            static_cast<unsigned long long>(rec.latency.percentile(990)),
            static_cast<unsigned long long>(rec.latency.percentile(999)));
    std::fprintf(out, "}");
}

} // namespace

void
writeIntervalSeriesJson(std::FILE *out,
                        std::span<const IntervalSeriesGroup> groups)
{
    std::fprintf(out, "[");
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const IntervalSeriesGroup &group = groups[g];
        std::uint64_t interval = 0;
        for (const LabelledIntervalSeries &s : group.series)
            if (s.stats != nullptr && s.stats->intervalAccesses != 0)
                interval = s.stats->intervalAccesses;
        std::fprintf(out,
                     "%s\n{\"name\": \"%s\", \"firstAccess\": %llu, "
                     "\"intervalAccesses\": %llu, \"series\": [",
                     g == 0 ? "" : ",", jsonEscape(group.name).c_str(),
                     static_cast<unsigned long long>(group.firstAccess),
                     static_cast<unsigned long long>(interval));
        for (std::size_t s = 0; s < group.series.size(); ++s) {
            const LabelledIntervalSeries &series = group.series[s];
            std::fprintf(out, "%s\n {\"label\": \"%s\", \"windows\": [",
                         s == 0 ? "" : ",",
                         jsonEscape(series.label).c_str());
            const IntervalStats empty;
            const IntervalStats &stats =
                series.stats != nullptr ? *series.stats : empty;
            for (std::size_t w = 0; w < stats.windows.size(); ++w) {
                std::fprintf(out, "%s\n  ", w == 0 ? "" : ",");
                emitWindow(out,
                           group.firstAccess +
                               w * stats.intervalAccesses,
                           stats.windows[w]);
            }
            std::fprintf(out, "]}");
        }
        std::fprintf(out, "]}");
    }
    std::fprintf(out, "\n]\n");
}

void
writeIntervalSeriesJsonFile(const std::string &path,
                            std::span<const IntervalSeriesGroup> groups)
{
    if (path == "-") {
        writeIntervalSeriesJson(stdout, groups);
        return;
    }
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot open " + path + " for writing");
    writeIntervalSeriesJson(out, groups);
    std::fclose(out);
}

} // namespace cdir
