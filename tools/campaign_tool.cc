/**
 * @file
 * Campaign CLI: run / resume / status / merge / local over a campaign
 * manifest (sim/campaign.hh).
 *
 *     campaign_tool run    --manifest=M [--shard-dir=D] [--range=A..B]
 *                          [--jobs=N] [--workers=W]
 *     campaign_tool resume ... (alias of run — runs are idempotent)
 *     campaign_tool status --manifest=M [--shard-dir=D]
 *     campaign_tool merge  --manifest=M [--shard-dir=D] [--out=FILE]
 *     campaign_tool local  --manifest=M [--jobs=N] [--out=FILE]
 *
 * `run` executes the manifest's cells in [A, B) (default: all), skipping
 * cells whose shard already exists — killing a worker and re-running the
 * same command recomputes only what is missing. `--workers=W` splits the
 * range into W contiguous chunks and forks one child process per chunk
 * (children are forked before any thread pool exists, then parallelize
 * internally with --jobs). `merge` folds the completed shards into the
 * canonical results document; `local` computes the same document
 * in-process through SweepRunner::runCells as the byte-identity
 * reference.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/campaign.hh"

using namespace cdir;

namespace {

[[noreturn]] void
usage(const char *why)
{
    if (why != nullptr && *why != '\0')
        std::fprintf(stderr, "campaign_tool: %s\n", why);
    std::fprintf(
        stderr,
        "usage:\n"
        "  campaign_tool run    --manifest=M [--shard-dir=D] "
        "[--range=A..B] [--jobs=N] [--workers=W]\n"
        "  campaign_tool resume (alias of run)\n"
        "  campaign_tool status --manifest=M [--shard-dir=D]\n"
        "  campaign_tool merge  --manifest=M [--shard-dir=D] "
        "[--out=FILE]\n"
        "  campaign_tool local  --manifest=M [--jobs=N] [--out=FILE]\n"
        "\n"
        "  --manifest=M   campaign manifest written by a harness's\n"
        "                 --campaign-manifest= flag (required)\n"
        "  --shard-dir=D  result shard directory (default: M.shards)\n"
        "  --range=A..B   run cells [A, B) of the manifest (default: "
        "all)\n"
        "  --jobs=N       worker threads per process (0 = hardware; "
        "default 1)\n"
        "  --workers=W    fork W child processes over disjoint "
        "sub-ranges\n"
        "  --out=FILE     write the results document to FILE "
        "atomically\n"
        "                 (default: stdout)\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *value, const char *arg)
{
    const std::optional<std::uint64_t> parsed = parseCliUnsigned(value);
    if (!parsed)
        usage(arg);
    return *parsed;
}

struct Cli
{
    std::string command;
    std::string manifestPath;
    std::string shardDir;
    std::string outPath;
    std::size_t rangeBegin = 0;
    std::size_t rangeEnd = 0; //!< 0 with rangeBegin==0 means "all"
    bool rangeSet = false;
    unsigned jobs = 1;
    unsigned workers = 0;
};

Cli
parseCli(int argc, char **argv)
{
    if (argc < 2)
        usage("missing subcommand");
    Cli cli;
    cli.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        if (const char *v = cliFlagValue(argv[i], "manifest")) {
            cli.manifestPath = v;
        } else if (const char *v = cliFlagValue(argv[i], "shard-dir")) {
            cli.shardDir = v;
        } else if (const char *v = cliFlagValue(argv[i], "out")) {
            cli.outPath = v;
        } else if (const char *v = cliFlagValue(argv[i], "jobs")) {
            cli.jobs = static_cast<unsigned>(parseU64(v, argv[i]));
        } else if (const char *v = cliFlagValue(argv[i], "workers")) {
            cli.workers = static_cast<unsigned>(parseU64(v, argv[i]));
        } else if (const char *v = cliFlagValue(argv[i], "range")) {
            const char *dots = std::strstr(v, "..");
            if (dots == nullptr)
                usage(argv[i]);
            const std::string a(v, dots);
            cli.rangeBegin = parseU64(a.c_str(), argv[i]);
            cli.rangeEnd = parseU64(dots + 2, argv[i]);
            if (cli.rangeEnd < cli.rangeBegin)
                usage(argv[i]);
            cli.rangeSet = true;
        } else {
            usage(argv[i]);
        }
    }
    if (cli.manifestPath.empty())
        usage("--manifest= is required");
    if (cli.shardDir.empty())
        cli.shardDir = campaignShardDir(cli.manifestPath);
    return cli;
}

int
runRange(const CampaignManifest &manifest, const Cli &cli,
         std::size_t begin, std::size_t end)
{
    const CampaignRunReport report =
        runCampaignCells(manifest, cli.shardDir, begin, end, cli.jobs);
    std::fprintf(stderr,
                 "campaign_tool: cells %zu..%zu: %zu ran, %zu already "
                 "done, %zu failed\n",
                 begin, end, report.ran, report.skipped, report.failed);
    return report.failed == 0 ? 0 : 1;
}

int
cmdRun(const CampaignManifest &manifest, const Cli &cli)
{
    const std::size_t begin = cli.rangeSet ? cli.rangeBegin : 0;
    const std::size_t end =
        cli.rangeSet ? std::min(cli.rangeEnd, manifest.cells.size())
                     : manifest.cells.size();
    if (begin > manifest.cells.size())
        usage("--range begins past the end of the manifest");

    if (cli.workers <= 1)
        return runRange(manifest, cli, begin, end);

    // Fork the workers *before* any thread pool exists in this
    // process (nothing above spins one up), so every child starts with
    // clean single-threaded state; each child then parallelizes
    // internally with --jobs. Contiguous chunks keep each worker's
    // shard writes clustered, and runCampaignCells's stale-tmp sweep
    // only ever touches its own range's cells.
    const std::size_t count = end - begin;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(cli.workers, std::max<std::size_t>(count, 1)));
    std::vector<pid_t> children;
    for (unsigned wk = 0; wk < workers; ++wk) {
        const std::size_t wbegin = begin + count * wk / workers;
        const std::size_t wend = begin + count * (wk + 1) / workers;
        if (wbegin == wend)
            continue;
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "campaign_tool: fork failed\n");
            return 1;
        }
        if (pid == 0) {
            int status = 1;
            try {
                status = runRange(manifest, cli, wbegin, wend);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "campaign_tool: %s\n", e.what());
            }
            ::_exit(status);
        }
        children.push_back(pid);
    }

    int exit_code = 0;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            exit_code = 1;
    }
    const CampaignStatus status =
        campaignStatus(manifest, cli.shardDir);
    std::fprintf(stderr, "campaign_tool: %zu/%zu cells complete\n",
                 status.done, status.total);
    return exit_code;
}

int
cmdStatus(const CampaignManifest &manifest, const Cli &cli)
{
    const CampaignStatus status =
        campaignStatus(manifest, cli.shardDir);
    std::printf("campaign: %s\ncells: %zu\ndone: %zu\nmissing: %zu\n",
                manifest.tool.c_str(), status.total, status.done,
                status.missing.size());
    // Compress the missing list into ranges so a 10k-cell campaign
    // with one hole prints one line, ready to paste into --range=.
    std::size_t i = 0;
    while (i < status.missing.size()) {
        std::size_t j = i;
        while (j + 1 < status.missing.size() &&
               status.missing[j + 1] == status.missing[j] + 1)
            ++j;
        std::printf("  missing range: %zu..%zu\n", status.missing[i],
                    status.missing[j] + 1);
        i = j + 1;
    }
    return status.missing.empty() ? 0 : 1;
}

/**
 * `merge` (from the shards) and `local` (in-process): print the results
 * document, or publish it atomically at --out=.
 */
int
cmdResults(const CampaignManifest &manifest, const Cli &cli)
{
    const SweepRunner runner(SweepOptions{cli.jobs, ""});
    const std::string doc = campaignResultsToJson(
        manifest, cli.command == "merge"
                      ? mergeCampaignShards(manifest, cli.shardDir)
                      : runner.runCells(manifest.cells, manifest.specCount));
    if (cli.outPath.empty())
        std::fwrite(doc.data(), 1, doc.size(), stdout);
    else
        atomicWriteFile(cli.outPath, doc);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli = parseCli(argc, argv);
    try {
        const CampaignManifest manifest =
            readCampaignManifest(cli.manifestPath);
        if (cli.command == "run" || cli.command == "resume")
            return cmdRun(manifest, cli);
        if (cli.command == "status")
            return cmdStatus(manifest, cli);
        if (cli.command == "merge" || cli.command == "local")
            return cmdResults(manifest, cli);
        usage(("unknown subcommand '" + cli.command + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_tool: %s\n", e.what());
        return 1;
    }
}
