/**
 * @file
 * Declared `name=value` settings: the one key=value grammar of the
 * repository.
 *
 * A `CliFlag` declares one setting once — name, destination, value
 * check, help line. The same declarations serve two surfaces: argv
 * (`CliFlags` in sim/sweep.hh, `--name=value`) and the workload spec
 * grammars (scenario `set`/`burst`/`trace` arguments, `fleet:` and
 * `slo-ramp:` knobs), which all look a setting up with setFlag(). An
 * unknown-name error can therefore list the declared names
 * (flagNames()) instead of a hand-kept copy.
 */

#ifndef CDIR_COMMON_CLI_FLAG_HH
#define CDIR_COMMON_CLI_FLAG_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cdir {

/**
 * One declared setting: `name=VALUE`, or a bare `name` toggle when
 * `value` is empty. `set` checks a value and stores it in the flag's
 * destination (a toggle gets an empty value); false means a bad value.
 */
struct CliFlag
{
    std::string name;  //!< without any leading "--"
    std::string value; //!< value placeholder in usage and error text
    std::string help;  //!< the flag's one usage line
    std::function<bool(std::string_view)> set;
};

/** `name=N`: a whole unsigned decimal >= @p min that fits @p dest. */
template <std::unsigned_integral T>
CliFlag
countFlag(const char *name, T &dest, std::uint64_t min, const char *help)
{
    return {name, "N", help, [&dest, min](std::string_view v) {
                const std::optional<std::uint64_t> n = parseCliUnsigned(v);
                if (!n || *n < min || *n > std::numeric_limits<T>::max())
                    return false;
                dest = static_cast<T>(*n);
                return true;
            }};
}

/** `name=X`: a whole, finite real number (parseCliReal). */
CliFlag realFlag(const char *name, double &dest, const char *help);

/** `name=VALUE`: any non-empty string. */
CliFlag textFlag(const char *name, std::string &dest, const char *value,
                 const char *help);

/** Bare `name`: sets @p dest. */
CliFlag toggleFlag(const char *name, bool &dest, const char *help);

/** `name=` one of @p choices' names: stores that choice's value. */
template <typename T>
CliFlag
choiceFlag(const char *name, T &dest,
           std::vector<std::pair<std::string, T>> choices, const char *help)
{
    std::string value;
    for (const auto &choice : choices)
        value += (value.empty() ? "" : "|") + choice.first;
    return {name, std::move(value), help,
            [&dest, choices = std::move(choices)](std::string_view v) {
                for (const auto &[text, choice] : choices)
                    if (text == v) {
                        dest = choice;
                        return true;
                    }
                return false;
            }};
}

/**
 * Set the flag of @p flags that @p setting names: "name=value", or a
 * bare "name" for a toggle. @return that flag, or nullptr when none is
 * named so; @p ok tells whether it accepted the value (a toggle given a
 * value, or a valued flag given none, is a bad value).
 */
const CliFlag *setFlag(std::span<const CliFlag> flags,
                       std::string_view setting, bool &ok);

/** "a=N, b=X, c": every declared name with its value placeholder. */
std::string flagNames(std::span<const CliFlag> flags);

/**
 * Split @p text at every @p separator, keeping empty items ("" is one
 * empty item). The one list grammar of comma lists (`--filter=`,
 * `--cost-model=`, `--scenario=`) and colon specs (`fleet:`).
 */
std::vector<std::string_view> splitList(std::string_view text,
                                        char separator);

} // namespace cdir

#endif // CDIR_COMMON_CLI_FLAG_HH
