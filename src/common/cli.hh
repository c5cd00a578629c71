/**
 * @file
 * Shared command-line conventions for the shotgun tools
 * (shotgun-trace, shotgun-serve, shotgun-submit):
 *
 *  - `--help` / `-h` prints the tool's usage text and exits 0;
 *  - `--version` prints "<tool> <version>" and exits 0;
 *  - bad usage (unknown flag, missing operand, malformed value)
 *    prints usage to stderr and exits `kUsageExitCode` (2);
 *  - runtime failures (unreachable server, unreadable file) exit 1
 *    via fatal().
 *
 * The scan is testable without process control: checkStandardFlags()
 * just classifies argv, the caller performs the printing/exit.
 */

#ifndef SHOTGUN_COMMON_CLI_HH
#define SHOTGUN_COMMON_CLI_HH

#include <cstdio>
#include <cstring>

namespace shotgun
{
namespace cli
{

/** Single project-wide version: seed was 0.1, each PR bumps minor. */
constexpr const char *kVersion = "0.8.0";

/** Exit code for malformed command lines (0 is help, 1 is fatal()). */
constexpr int kUsageExitCode = 2;

enum class StandardFlag
{
    None,    ///< Neither flag present; parse the real command line.
    Help,    ///< --help/-h anywhere: print usage, exit 0.
    Version, ///< --version anywhere: print version, exit 0.
};

/**
 * Scan argv for the standard flags. Help wins over version when both
 * appear (matching GNU tools). Scans every position so
 * `tool subcommand --help` works too.
 */
inline StandardFlag
checkStandardFlags(int argc, char **argv)
{
    StandardFlag found = StandardFlag::None;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            return StandardFlag::Help;
        if (std::strcmp(argv[i], "--version") == 0)
            found = StandardFlag::Version;
    }
    return found;
}

/**
 * Standard prologue for a tool's main(): handles --help/--version.
 * Returns true when the flag was handled and main() should return
 * `exit_code` (always 0) immediately.
 */
inline bool
handleStandardFlags(int argc, char **argv, const char *tool,
                    const char *usage, int &exit_code)
{
    switch (checkStandardFlags(argc, argv)) {
      case StandardFlag::Help:
        std::fputs(usage, stdout);
        exit_code = 0;
        return true;
      case StandardFlag::Version:
        std::printf("%s %s\n", tool, kVersion);
        exit_code = 0;
        return true;
      case StandardFlag::None:
        break;
    }
    return false;
}

/**
 * --help/-h for a program that has no --version (the examples):
 * prints `usage` to stdout. Returns true when main() should exit 0.
 */
inline bool
handleHelpFlag(int argc, char **argv, const char *usage)
{
    if (checkStandardFlags(argc, argv) != StandardFlag::Help)
        return false;
    std::fputs(usage, stdout);
    return true;
}

} // namespace cli
} // namespace shotgun

#endif // SHOTGUN_COMMON_CLI_HH
