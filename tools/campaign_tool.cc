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
 * (children are forked before this process starts any thread, then
 * parallelize internally with --jobs). `merge` folds the completed shards into the
 * canonical results document; `local` computes the same document
 * in-process through SweepRunner::runCells as the byte-identity
 * reference.
 */

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/campaign.hh"

using namespace cdir;

namespace {

struct Cli
{
    std::string command;
    std::string manifestPath;
    std::string shardDir;
    std::string outPath;
    std::size_t rangeBegin = 0;
    std::size_t rangeEnd = std::numeric_limits<std::size_t>::max();
    unsigned jobs = 1;
    unsigned workers = 0;
};

/** `--range=A..B`: cells [A, B) of the manifest. */
CliFlag
rangeFlag(Cli &cli)
{
    return {"range", "A..B", "run cells [A, B) of the manifest (default all)",
            [&cli](std::string_view text) {
                const std::size_t dots = text.find("..");
                if (dots == std::string_view::npos)
                    return false;
                const auto a = parseCliUnsigned(text.substr(0, dots));
                const auto b = parseCliUnsigned(text.substr(dots + 2));
                if (!a || !b || *b < *a)
                    return false;
                cli.rangeBegin = *a;
                cli.rangeEnd = *b;
                return true;
            }};
}

/** Parse the subcommand's flag set; exits 2 on a bad command line. */
Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    CliFlags flags{"campaign_tool",
                   "run|resume|status|merge|local --manifest=M [flags]",
                   {}};
    cli.command = argc > 1 ? argv[1] : "";
    const bool run = cli.command == "run" || cli.command == "resume";
    const CliFlag manifest = textFlag(
        "manifest", cli.manifestPath, "M",
        "manifest written by a harness's --campaign-manifest=");
    const CliFlag shard_dir = textFlag(
        "shard-dir", cli.shardDir, "D",
        "shard directory (default: the manifest path + .shards)");
    const CliFlag jobs = countFlag(
        "jobs", cli.jobs, 0,
        "worker threads per process (0 = hardware; default 1)");
    const CliFlag out = textFlag(
        "out", cli.outPath, "FILE",
        "write the results to FILE atomically (default stdout)");
    if (run)
        flags.flags = {manifest, shard_dir, rangeFlag(cli), jobs,
                       countFlag("workers", cli.workers, 0,
                                 "fork W child processes over disjoint "
                                 "sub-ranges")};
    else if (cli.command == "status")
        flags.flags = {manifest, shard_dir};
    else if (cli.command == "merge")
        flags.flags = {manifest, shard_dir, out};
    else if (cli.command == "local")
        flags.flags = {manifest, jobs, out};
    else
        flags.fail(cli.command.empty()
                       ? "missing subcommand"
                       : "unknown subcommand '" + cli.command + "'");
    flags.parse(argc - 1, argv + 1);
    if (cli.manifestPath.empty())
        flags.fail("--manifest= is required");
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
    const std::size_t begin = cli.rangeBegin;
    const std::size_t end = std::min(cli.rangeEnd, manifest.cells.size());
    if (begin > manifest.cells.size()) {
        std::fprintf(stderr, "campaign_tool: --range begins past the end "
                             "of the manifest\n");
        return 2;
    }

    if (cli.workers <= 1)
        return runRange(manifest, cli, begin, end);

    // Fork the workers *before* this process starts any thread
    // (nothing above starts one), so every child starts with
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
        if (cli.command == "status")
            return cmdStatus(manifest, cli);
        if (cli.command == "merge" || cli.command == "local")
            return cmdResults(manifest, cli);
        return cmdRun(manifest, cli);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_tool: %s\n", e.what());
        return 1;
    }
}
