#include "service/codec.hh"

#include <cctype>
#include <filesystem>
#include <utility>

namespace shotgun
{
namespace service
{

WorkloadPreset
decodeWorkloadPreset(const json::Value &v)
{
    if (!v.isString())
        return decodeAs<WorkloadPreset>(v, "workload");

    // Compact form: a preset name or trace:<path>[:name] spec,
    // validated here because presetByName() is fatal on errors.
    const std::string &spec = v.asString();
    if (isTraceWorkloadSpec(spec)) {
        // Resolve the path with the same precedence rules
        // presetFromTraceSpec (presets.cc) will apply -- the whole
        // remainder when such a file exists, otherwise the part
        // before the last ':' -- then require that exact file to pass
        // the non-fatal header probe. Probing a different candidate
        // than presetByName() would open would let a bad file through
        // to its fatal() paths.
        const std::string rest = spec.substr(6);
        if (rest.empty())
            throw CodecError("workload spec \"" + spec +
                             "\": expected trace:<path>[:name]");
        std::string path = rest;
        std::error_code ec;
        if (!std::filesystem::exists(path, ec)) {
            const auto colon = rest.rfind(':');
            if (colon != std::string::npos)
                path = rest.substr(0, colon);
        }
        std::string error;
        if (!probeTraceFile(path, 0, error))
            throw CodecError("workload spec \"" + spec + "\": " + error);
        return presetByName(spec);
    }
    std::string lower(spec);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    for (std::size_t i = 0; i < kWorkloadIdNames.count; ++i) {
        if (lower == kWorkloadIdNames.name(static_cast<WorkloadId>(i)))
            return presetByName(lower);
    }
    throw CodecError("unknown workload id \"" + lower + "\"");
}

SimWindow
decodeSimWindow(const json::Value &v)
{
    return decodeAs<SimWindow>(v, "window");
}

SimConfig
decodeSimConfig(const json::Value &v)
{
    return decodeAs<SimConfig>(v, "config");
}

SimResult
decodeSimResult(const json::Value &v)
{
    return decodeAs<SimResult>(v, "result");
}

// ---------------------------------------------------- trace validation

bool
probeTraceFile(const std::string &path,
               std::uint64_t needed_instructions, std::string &error,
               TraceInfo *info)
{
    TraceInfo parsed;
    if (!tryReadTraceInfo(path, parsed, error))
        return false;
    if (parsed.instructions < needed_instructions) {
        error = "trace '" + path + "' holds " +
                std::to_string(parsed.instructions) +
                " instructions but the run needs " +
                std::to_string(needed_instructions) +
                "; record a longer trace";
        return false;
    }
    if (info != nullptr)
        *info = std::move(parsed);
    return true;
}

} // namespace service
} // namespace shotgun
