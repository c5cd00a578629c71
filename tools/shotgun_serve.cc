/**
 * @file
 * shotgun-serve: the batch/async simulation service daemon. Wraps
 * the in-library SimServer (src/service/server.hh): listens on a TCP
 * or Unix-socket endpoint, queues submitted experiment grids,
 * executes them through the shared ExperimentRunner with a
 * fingerprint-keyed result cache, and streams results back as
 * newline-delimited JSON frames (protocol spec:
 * src/service/README.md).
 *
 *   shotgun-serve --listen unix:/run/shotgun.sock
 *   shotgun-serve --listen 0.0.0.0:7401 --jobs 8 --quiet
 *
 * The daemon prints `listening on <endpoint>` on stdout once ready
 * (scripts wait for that line), then serves until a client sends a
 * `shutdown` frame (e.g. `shotgun-submit --server ... --shutdown`).
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "fleet/disk_cache.hh"
#include "fleet/worker.hh"
#include "obs/trace.hh"
#include "runner/grid_scheduler.hh"
#include "service/server.hh"

using namespace shotgun;

namespace
{

const char *kUsage =
    "usage: shotgun-serve --listen ENDPOINT [--jobs N]\n"
    "                     [--cache-bytes N[K|M|G]] [--cache-dir DIR]\n"
    "                     [--cache-max-bytes N[K|M|G]]\n"
    "                     [--coordinator ENDPOINT] [--name NAME]\n"
    "                     [--heartbeat-ms N] [--quiet]\n"
    "\n"
    "Long-running simulation service: accepts experiment grids over\n"
    "the newline-delimited JSON frame protocol (see\n"
    "src/service/README.md), schedules concurrently submitted grids\n"
    "fairly over one worker pool (weighted fair share per grid\n"
    "point), and streams each job's results back in its grid order,\n"
    "serving repeated configurations from a fingerprint-keyed\n"
    "result cache.\n"
    "\n"
    "Warmed state is the daemon's largest memory consumer. Each\n"
    "process keeps the post-warmup state of its simulations in one\n"
    "64 MiB least-recently-used store, so a later run with the same\n"
    "warmup restores it instead of simulating it again; a worker fed\n"
    "fresh configs holds its program images plus up to 64 MiB. A\n"
    "six-preset, six-scheme grid's 36 warmed states fit (about 60 MB\n"
    "at 2M-4M warm-up instructions). A grid with more distinct\n"
    "warmups than fit keeps only its newest, so a rerun of it\n"
    "simulates its warmups again. --status reports the store under\n"
    "server.checkpoint.\n"
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
    "  --jobs N            worker pool size, also the cap on any\n"
    "                      single job's worker budget (default: one\n"
    "                      per hardware thread)\n"
    "  --cache-bytes N     byte budget for the result cache;\n"
    "                      least-recently-used results are evicted\n"
    "                      beyond it (suffix K/M/G; default 64M,\n"
    "                      about 117,000 results; 0: unbounded)\n"
    "  --cache-dir DIR     persistent result cache directory: every\n"
    "                      result is written through to disk and\n"
    "                      served from there after a restart\n"
    "  --cache-max-bytes N byte bound on the --cache-dir directory;\n"
    "                      oldest entries are trimmed first when a\n"
    "                      store pushes the total over the bound\n"
    "                      (suffix K/M/G; default: unbounded)\n"
    "  --coordinator EP    join the fleet at this shotgun-coord\n"
    "                      endpoint: register, heartbeat, and steal\n"
    "                      grid points (one slot per --jobs worker)\n"
    "                      while still serving direct clients\n"
    "  --name NAME         worker name shown in --fleet-status\n"
    "                      (default: serve-<pid>)\n"
    "  --heartbeat-ms N    fleet heartbeat period, also the cap on\n"
    "                      the reconnect backoff, which starts at\n"
    "                      5 ms and doubles (default 1000)\n"
    "  --trace-out FILE    write a Chrome trace-event JSON of every\n"
    "                      span this daemon recorded (its own and\n"
    "                      trace-carrying jobs') when it shuts down;\n"
    "                      Perfetto-loadable\n"
    "  --quiet             no connection/job log lines on stderr\n"
    "\n"
    "Stop it with: shotgun-submit --server ENDPOINT --shutdown\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "shotgun-serve: %s\n%s", message.c_str(),
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
    if (cli::handleStandardFlags(argc, argv, "shotgun-serve", kUsage,
                                 exit_code))
        return exit_code;

    std::string listen;
    std::string cache_dir;
    std::string trace_out;
    std::uint64_t cache_max_bytes = 0;
    service::ServerOptions options;
    options.log = &std::cerr;
    fleet::WorkerOptions fleet_options;
    fleet_options.name = "serve-" + std::to_string(::getpid());

    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError(std::string(flag) + ": missing value");
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--listen") == 0) {
            listen = next("--listen");
        } else if (std::strcmp(argv[i], "--jobs") == 0) {
            std::uint64_t jobs = 0;
            const char *text = next("--jobs");
            if (!parseU64(text, jobs) || jobs == 0 || jobs > 1024)
                usageError(std::string("--jobs: expected a worker "
                                       "count in [1, 1024], got '") +
                           text + "'");
            options.jobs = static_cast<unsigned>(jobs);
        } else if (std::strcmp(argv[i], "--cache-bytes") == 0) {
            options.cacheBytes = cacheBytesArg(next("--cache-bytes"));
        } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
            cache_dir = next("--cache-dir");
        } else if (std::strcmp(argv[i], "--cache-max-bytes") == 0) {
            cache_max_bytes = byteSizeArg(
                "--cache-max-bytes", next("--cache-max-bytes"));
        } else if (std::strcmp(argv[i], "--coordinator") == 0) {
            fleet_options.coordinator = next("--coordinator");
        } else if (std::strcmp(argv[i], "--name") == 0) {
            fleet_options.name = next("--name");
        } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0) {
            std::uint64_t ms = 0;
            const char *text = next("--heartbeat-ms");
            if (!parseU64(text, ms) || ms == 0 || ms > 3600000)
                usageError(std::string("--heartbeat-ms: expected an "
                                       "interval in [1, 3600000], "
                                       "got '") +
                           text + "'");
            fleet_options.heartbeatMs = static_cast<unsigned>(ms);
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

    // The worker name doubles as the span lane group, so spans
    // shipped to a tracing coordinator say which worker ran them
    // even when this daemon itself writes no trace file.
    obs::tracer().setProcessName(fleet_options.name);
    if (!trace_out.empty())
        obs::tracer().enable(obs::newTraceId());

    try {
        service::SimServer server(listen, options);
        // The disk cache must be attached before serve() admits any
        // job (setBackend is not thread-safe against concurrent
        // gets); it outlives the server, which uses it from worker
        // threads until serve() returns.
        std::unique_ptr<fleet::DiskResultCache> disk;
        if (!cache_dir.empty()) {
            disk.reset(new fleet::DiskResultCache(cache_dir,
                                                  cache_max_bytes));
            disk->attachTo(server);
        }
        // Ready marker for scripts; resolved so `--listen host:0`
        // callers learn the actual port.
        std::printf("listening on %s\n", server.endpoint().c_str());
        std::fflush(stdout);
        if (!fleet_options.coordinator.empty()) {
            if (fleet_options.slots <= 1)
                fleet_options.slots = options.jobs != 0
                                          ? options.jobs
                                          : runner::hardwareJobs();
            if (options.log != nullptr)
                fleet_options.log = options.log;
            fleet::FleetWorker worker(server, fleet_options);
            worker.start();
            server.serve();
            worker.stop();
        } else {
            server.serve();
        }
        if (!trace_out.empty()) {
            if (!obs::writeChromeTrace(trace_out,
                                       obs::tracer().snapshot()))
                fatal("cannot write trace to '%s'",
                      trace_out.c_str());
            std::fprintf(stderr, "trace: %s\n", trace_out.c_str());
        }
    } catch (const std::exception &e) {
        // SocketError (bad endpoint, bind failure) or anything else
        // escaping serve() (e.g. std::system_error from thread
        // exhaustion): exit 1 with a message, never std::terminate.
        fatal("%s", e.what());
    }
    return 0;
}
