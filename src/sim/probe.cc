#include "sim/probe.hh"

#include <stdexcept>

#include "sim/cmp_system.hh"

namespace cdir {

SystemProbe::SystemProbe(std::uint64_t interval_accesses)
    : interval(interval_accesses)
{
    if (interval == 0)
        throw std::invalid_argument(
            "SystemProbe: interval must be >= 1 access");
}

void
SystemProbe::capture(const CmpSystem &system)
{
    const IntervalRecord window = system.cutInterval(mark);
    ProbeSnapshot snap;
    snap.sequence = ++sequence;
    snap.accessIndex = accessCount;

    // Point-in-time occupancy, per slice and aggregate. Capture runs
    // between flushes, so every staged outcome has been applied.
    snap.sliceOccupancy.reserve(system.numSlices());
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        snap.sliceOccupancy.push_back(system.slice(s).occupancy());
    snap.occupiedEntries = window.occupiedEntries;
    snap.capacityEntries = window.capacityEntries;
    snap.occupancy = window.occupancy();

    // Windowed deltas against the previous capture.
    snap.windowAccesses = accessCount - markIndex;
    snap.windowInsertions = window.insertions;
    snap.windowAttemptMean = window.avgInsertionAttempts();
    snap.windowForcedInvalidations = window.forcedInvalidations;
    snap.forcedPer1k =
        snap.windowAccesses != 0
            ? 1000.0 * double(snap.windowForcedInvalidations) /
                  double(snap.windowAccesses)
            : 0.0;
    snap.timed = system.costModel() != nullptr;
    if (window.latency.count() != 0) {
        snap.windowP50 = window.latency.percentile(500);
        snap.windowP99 = window.latency.percentile(990);
    }
    markIndex = accessCount;

    feed.publish(std::move(snap));
}

void
SystemProbe::onStatsReset()
{
    // The cumulative counters just went to zero; windows restart from
    // the reset point. accessCount and sequence are *not* reset: probe
    // boundaries stay on the same absolute access grid, which is what
    // keeps a warmup-spanning recording replayable.
    markIndex = accessCount;
    mark = IntervalRecord{};
}

} // namespace cdir
