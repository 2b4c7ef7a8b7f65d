#include "workload/feedback.hh"

#include <cstdio>
#include <optional>
#include <stdexcept>

namespace cdir {

namespace {

/** Grammar names, indexed by TriggerMetric. */
constexpr const char *kMetricNames[] = {"occupancy", "p50", "p99",
                                        "forced-per-1k", "attempts"};

} // namespace

const char *
triggerMetricName(TriggerMetric metric)
{
    return kMetricNames[static_cast<std::size_t>(metric)];
}

CliFlag
triggerMetricFlag(TriggerMetric &dest)
{
    std::vector<std::pair<std::string, TriggerMetric>> choices;
    for (std::size_t i = 0; i < std::size(kMetricNames); ++i)
        choices.emplace_back(kMetricNames[i], TriggerMetric(i));
    return choiceFlag("metric", dest, std::move(choices), "metric");
}

bool
triggerMetricNeedsTiming(TriggerMetric metric)
{
    return metric == TriggerMetric::P50 || metric == TriggerMetric::P99;
}

double
triggerMetricValue(const ProbeSnapshot &snapshot, TriggerMetric metric)
{
    switch (metric) {
      case TriggerMetric::Occupancy:
        return snapshot.occupancy;
      case TriggerMetric::P50:
        return static_cast<double>(snapshot.windowP50);
      case TriggerMetric::P99:
        return static_cast<double>(snapshot.windowP99);
      case TriggerMetric::ForcedPer1k:
        return snapshot.forcedPer1k;
      case TriggerMetric::Attempts:
        return snapshot.windowAttemptMean;
    }
    return 0.0;
}

PhaseTrigger
parsePhaseTrigger(const std::string &text)
{
    const std::size_t op = text.find_first_of("<>");
    if (op == std::string::npos)
        throw std::invalid_argument(
            "trigger '" + text + "' has no comparison ('>' or '<')");
    PhaseTrigger trigger;
    trigger.greater = text[op] == '>';
    if (text.find(trigger.greater ? '<' : '>') != std::string::npos)
        throw std::invalid_argument(
            "trigger '" + text + "' mixes '>' and '<'");

    const std::string name = text.substr(0, op);
    const CliFlag metric = triggerMetricFlag(trigger.metric);
    if (!metric.set(name))
        throw std::invalid_argument("trigger '" + text +
                                    "' names unknown metric '" + name +
                                    "' (try " + metric.value + ")");

    const std::string value = text.substr(op + 1);
    const std::optional<double> threshold = parseCliReal(value);
    if (!threshold)
        throw std::invalid_argument(
            "trigger '" + text + "' has malformed threshold '" + value +
            "'");
    trigger.threshold = *threshold;
    if (trigger.threshold < 0.0)
        throw std::invalid_argument(
            "trigger '" + text + "' threshold must be >= 0");
    if (trigger.metric == TriggerMetric::Occupancy &&
        trigger.threshold > 1.0)
        throw std::invalid_argument(
            "trigger '" + text +
            "': occupancy is a fraction, threshold must be <= 1");
    return trigger;
}

std::string
formatPhaseTrigger(const PhaseTrigger &trigger)
{
    char value[32];
    std::snprintf(value, sizeof value, "%g", trigger.threshold);
    return std::string(triggerMetricName(trigger.metric)) +
           (trigger.greater ? ">" : "<") + value;
}

bool
triggerSatisfied(const PhaseTrigger &trigger,
                 const ProbeSnapshot &snapshot)
{
    const double value = triggerMetricValue(snapshot, trigger.metric);
    return trigger.greater ? value > trigger.threshold
                           : value < trigger.threshold;
}

} // namespace cdir
