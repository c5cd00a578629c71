/**
 * @file
 * shotgun-coord: the fleet control-plane daemon. Wraps the
 * in-library FleetCoordinator (src/fleet/coordinator.hh): workers
 * started with `shotgun-serve --coordinator HOST:PORT` register
 * here and steal grid points from a global queue that jobs share by
 * priority; clients submit with `shotgun-submit --coordinator
 * HOST:PORT` exactly as they would to a single server, and get
 * byte-identical results.
 *
 *   shotgun-coord --listen 0.0.0.0:7400 --cache-dir /var/cache/shotgun
 *   shotgun-coord --listen unix:/run/shotgun-coord.sock --quiet
 *
 * The daemon prints `listening on <endpoint>` on stdout once ready
 * (scripts wait for that line), then serves until a client sends a
 * `shutdown` frame (`shotgun-submit --coordinator ... --shutdown`).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "fleet/coordinator.hh"
#include "obs/trace.hh"

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage: shotgun-coord --listen ENDPOINT [--cache-bytes N[K|M|G]]\n"
    "                     [--cache-dir DIR]\n"
    "                     [--cache-max-bytes N[K|M|G]]\n"
    "                     [--heartbeat-ms N] [--miss-limit N]\n"
    "                     [--quiet]\n"
    "\n"
    "Fleet coordinator: holds a global work-stealing queue of grid\n"
    "points ordered by job priority then simulated length\n"
    "(longest-measured-first), hands them to registered\n"
    "shotgun-serve workers, requeues the points of a worker that\n"
    "dies or misses heartbeats, and streams each job's results to\n"
    "its client in grid order -- byte-identical to a local run.\n"
    "\n"
    "Program sizes are capped at admission: a submit whose program\n"
    "image would reserve more than 192 MiB (every function's row and\n"
    "room for its largest basic-block count in 20-byte records; four\n"
    "times the largest preset's) is refused with an error naming\n"
    "num_funcs.\n"
    "\n"
    "  --listen ENDPOINT   unix:<path> or <host>:<port> (TCP port 0\n"
    "                      asks the kernel for a free port; the\n"
    "                      resolved endpoint is printed on stdout)\n"
    "  --cache-bytes N     byte budget for the in-memory result\n"
    "                      cache (suffix K/M/G; default 64M, about\n"
    "                      60,000 results; 0: unbounded)\n"
    "  --cache-dir DIR     persistent result cache directory; every\n"
    "                      result is written through to one JSON\n"
    "                      file per config fingerprint and served\n"
    "                      from disk after a restart\n"
    "  --cache-max-bytes N byte bound on the --cache-dir directory;\n"
    "                      oldest entries are trimmed first when a\n"
    "                      store pushes the total over the bound\n"
    "                      (suffix K/M/G; default: unbounded)\n"
    "  --heartbeat-ms N    expected worker heartbeat interval\n"
    "                      (default 1000)\n"
    "  --miss-limit N      heartbeats a worker may miss before its\n"
    "                      in-flight points are requeued on the\n"
    "                      survivors (default 3)\n"
    "  --trace-out FILE    write a Chrome trace-event JSON when the\n"
    "                      daemon shuts down: the coordinator's own\n"
    "                      queue/emit spans plus every span its\n"
    "                      workers shipped back, one cross-process\n"
    "                      fleet timeline (Perfetto-loadable)\n"
    "  --quiet             no fleet/job log lines on stderr\n"
    "\n"
    "Stop it with: shotgun-submit --coordinator ENDPOINT --shutdown\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "shotgun-coord: %s\n%s", message.c_str(),
                 kUsage);
    std::exit(cli::kUsageExitCode);
}

/** The byte count `flag` was given, or a usage error. */
std::uint64_t
byteSizeArg(const char *flag, const char *text)
{
    std::uint64_t bytes = 0;
    if (!parseByteSize(text, bytes))
        usageError(std::string(flag) +
                   ": expected a positive byte count (K/M/G suffix "
                   "allowed), got '" + text + "'");
    return bytes;
}

/** --cache-bytes' value: a byte count, or 0 for unbounded. */
std::size_t
cacheBytesArg(const char *text)
{
    if (std::strcmp(text, "0") == 0)
        return 0;
    return static_cast<std::size_t>(byteSizeArg("--cache-bytes", text));
}

} // namespace

int
main(int argc, char **argv)
{
    int exit_code = 0;
    if (cli::handleStandardFlags(argc, argv, "shotgun-coord", kUsage,
                                 exit_code))
        return exit_code;

    std::string listen;
    std::string trace_out;
    fleet::CoordinatorOptions options;
    options.log = &std::cerr;

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + ": missing value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--listen") == 0) {
            listen = next("--listen");
        } else if (std::strcmp(argv[i], "--cache-bytes") == 0) {
            options.cacheBytes = cacheBytesArg(next("--cache-bytes"));
        } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
            options.cacheDir = next("--cache-dir");
        } else if (std::strcmp(argv[i], "--cache-max-bytes") == 0) {
            options.cacheDirMaxBytes = byteSizeArg(
                "--cache-max-bytes", next("--cache-max-bytes"));
        } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0) {
            std::uint64_t ms = 0;
            const char *text = next("--heartbeat-ms");
            if (!parseU64(text, ms) || ms == 0 || ms > 3600000)
                usageError(std::string("--heartbeat-ms: expected an "
                                       "interval in [1, 3600000], "
                                       "got '") +
                           text + "'");
            options.heartbeatIntervalMs = static_cast<unsigned>(ms);
        } else if (std::strcmp(argv[i], "--miss-limit") == 0) {
            std::uint64_t limit = 0;
            const char *text = next("--miss-limit");
            if (!parseU64(text, limit) || limit == 0 || limit > 1000)
                usageError(std::string("--miss-limit: expected a "
                                       "count in [1, 1000], got '") +
                           text + "'");
            options.heartbeatMissLimit =
                static_cast<unsigned>(limit);
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            trace_out = next("--trace-out");
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            options.log = nullptr;
        } else {
            usageError(std::string("unknown option '") + argv[i] +
                       "'");
        }
    }
    if (listen.empty())
        usageError("--listen ENDPOINT is required");

    obs::tracer().setProcessName("coord");
    if (!trace_out.empty())
        obs::tracer().enable(obs::newTraceId());

    try {
        fleet::FleetCoordinator coordinator(listen, options);
        std::printf("listening on %s\n",
                    coordinator.endpoint().c_str());
        std::fflush(stdout);
        coordinator.serve();
        if (!trace_out.empty()) {
            if (!obs::writeChromeTrace(trace_out,
                                       obs::tracer().snapshot()))
                fatal("cannot write trace to '%s'",
                      trace_out.c_str());
            std::fprintf(stderr, "trace: %s\n", trace_out.c_str());
        }
    } catch (const std::exception &e) {
        fatal("%s", e.what());
    }
    return 0;
}
