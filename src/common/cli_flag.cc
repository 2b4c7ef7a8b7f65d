#include "common/cli_flag.hh"

#include <algorithm>

namespace cdir {

CliFlag
realFlag(const char *name, double &dest, const char *help)
{
    return {name, "X", help, [&dest](std::string_view v) {
                const std::optional<double> x = parseCliReal(v);
                if (x)
                    dest = *x;
                return x.has_value();
            }};
}

CliFlag
textFlag(const char *name, std::string &dest, const char *value,
         const char *help)
{
    return {name, value, help, [&dest](std::string_view v) {
                dest = v;
                return !dest.empty();
            }};
}

CliFlag
toggleFlag(const char *name, bool &dest, const char *help)
{
    return {name, "", help, [&dest](std::string_view) {
                dest = true;
                return true;
            }};
}

const CliFlag *
setFlag(std::span<const CliFlag> flags, std::string_view setting,
        bool &ok)
{
    const std::size_t eq = setting.find('=');
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const CliFlag &f) {
            return f.name == setting.substr(0, eq);
        });
    if (flag == flags.end())
        return nullptr;
    const bool toggle = flag->value.empty();
    ok = toggle == (eq == std::string_view::npos) &&
         flag->set(toggle ? std::string_view() : setting.substr(eq + 1));
    return &*flag;
}

std::string
flagNames(std::span<const CliFlag> flags)
{
    std::string names;
    for (const CliFlag &flag : flags)
        names += (names.empty() ? "" : ", ") + flag.name +
                 (flag.value.empty() ? "" : "=" + flag.value);
    return names;
}

std::vector<std::string_view>
splitList(std::string_view text, char separator)
{
    std::vector<std::string_view> items;
    for (;;) {
        const std::size_t end = text.find(separator);
        items.push_back(text.substr(0, end));
        if (end == std::string_view::npos)
            return items;
        text.remove_prefix(end + 1);
    }
}

} // namespace cdir
