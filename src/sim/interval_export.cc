#include "sim/interval_export.hh"

#include "common/json.hh"

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

/** Window @p rec's members: camelCase counters and derived metrics. */
void
windowFields(JsonOut &io, const IntervalRecord &rec)
{
    io.field("accesses", rec.accesses);
    io.field("cacheMisses", rec.cacheMisses);
    io.field("insertions", rec.insertions);
    io.field("forcedEvictions", rec.forcedEvictions);
    io.field("sharingInvalidations", rec.sharingInvalidations);
    io.field("forcedInvalidations", rec.forcedInvalidations);
    io.field("occupiedEntries", rec.occupiedEntries);
    io.field("capacityEntries", rec.capacityEntries);
    io.field("occupancy", rec.occupancy());
    io.field("invalidationRate", rec.invalidationRate());
    io.field("avgInsertionAttempts", rec.avgInsertionAttempts());
    if (rec.latency.empty())
        return;
    io.field("latencySamples", rec.latency.count());
    io.field("latencyMean", rec.latency.mean());
    io.field("latencyP50", rec.latency.percentile(500));
    io.field("latencyP99", rec.latency.percentile(990));
    io.field("latencyP999", rec.latency.percentile(999));
}

} // namespace

std::string
intervalSeriesToJson(std::span<const IntervalSeriesGroup> groups)
{
    std::string doc;
    JsonOut out(doc);
    out.beginArray();
    for (const IntervalSeriesGroup &group : groups) {
        std::uint64_t interval = 0;
        for (const LabelledIntervalSeries &s : group.series)
            if (s.stats != nullptr && s.stats->intervalAccesses != 0)
                interval = s.stats->intervalAccesses;
        out.newline(0);
        out.beginObject();
        out.field("name", group.name);
        out.field("firstAccess", group.firstAccess);
        out.field("intervalAccesses", interval);
        out.key("series");
        out.beginArray();
        for (const LabelledIntervalSeries &series : group.series) {
            out.newline(1);
            out.beginObject();
            out.field("label", series.label);
            out.key("windows");
            out.beginArray();
            const IntervalStats empty;
            const IntervalStats &stats =
                series.stats != nullptr ? *series.stats : empty;
            for (std::size_t w = 0; w < stats.windows.size(); ++w) {
                out.newline(2);
                out.beginObject();
                out.field("access",
                          group.firstAccess + w * stats.intervalAccesses);
                windowFields(out, stats.windows[w]);
                out.endObject();
            }
            out.endArray();
            out.endObject();
        }
        out.endArray();
        out.endObject();
    }
    out.newline(0);
    out.endArray();
    return doc + "\n";
}

} // namespace cdir
