/**
 * @file
 * Harness-specific CLI flag parsing for the figure harnesses.
 *
 * The shared experiment CLI (--jobs/--format/--filter/--scale/
 * --warmup/--measure) and all table/CSV/JSON emission live in
 * src/sim/sweep.hh; this header only keeps the parser for the
 * harness-specific numeric knobs (--ops=, --values=, ...), which
 * `parseHarnessOptions` deliberately ignores.
 */

#ifndef CDIR_BENCH_BENCH_UTIL_HH
#define CDIR_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sim/sweep.hh"

namespace cdir::bench {

/**
 * Value of --name=value (or @p fallback) from argv; exits with status 2
 * when the value is not a whole unsigned decimal number.
 */
inline std::uint64_t
flagU64(int argc, char **argv, const char *name, std::uint64_t fallback)
{
    for (int i = 1; i < argc; ++i) {
        if (const char *v = cliFlagValue(argv[i], name)) {
            if (const std::optional<std::uint64_t> parsed =
                    parseCliUnsigned(v))
                return *parsed;
            std::fprintf(stderr, "bad --%s value '%s'\n", name, v);
            std::exit(2);
        }
    }
    return fallback;
}

} // namespace cdir::bench

#endif // CDIR_BENCH_BENCH_UTIL_HH
