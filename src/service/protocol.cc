#include "service/protocol.hh"

namespace shotgun
{
namespace obs
{

json::Value
spanToJson(const SpanRecord &span)
{
    return encodeTree(span);
}

SpanRecord
spanFromJson(const json::Value &value)
{
    return service::decodeAs<SpanRecord>(value, "span");
}

} // namespace obs

namespace service
{

using json::Value;

bool
validateExperimentTrace(const runner::Experiment &exp,
                        TraceProbeCache &probed, std::string &error)
{
    const std::string &path = exp.config.workload.tracePath;
    if (path.empty())
        return true;
    auto it = probed.find(path);
    if (it == probed.end()) {
        std::string probe_error;
        TraceInfo info;
        if (!probeTraceFile(path, 0, probe_error, &info)) {
            error = "experiment \"" + exp.workload + "/" + exp.label +
                    "\": " + probe_error;
            return false;
        }
        it = probed
                 .emplace(path,
                          std::make_pair(
                              info.instructions,
                              canonicalText(info.preset.program)))
                 .first;
    }
    const std::uint64_t needed = exp.config.streamInstructions();
    if (it->second.first < needed) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path + "' holds " +
                std::to_string(it->second.first) +
                " instructions but the run needs " +
                std::to_string(needed) + "; record a longer trace";
        return false;
    }
    if (it->second.second !=
        canonicalText(exp.config.workload.program)) {
        error = "experiment \"" + exp.workload + "/" + exp.label +
                "\": trace '" + path +
                "' on this server was recorded from different "
                "program parameters than the submitted workload "
                "(stale or re-recorded copy?)";
        return false;
    }
    return true;
}

json::Value
makeFrame(const std::string &type)
{
    Value v = Value::object();
    v.set("type", Value::string(type));
    return v;
}

json::Value
makeError(const std::string &message)
{
    Value v = makeFrame("error");
    v.set("message", Value::string(message));
    return v;
}

std::string
frameType(const json::Value &frame)
{
    if (!frame.isObject())
        throw CodecError("frame is not a JSON object");
    const Value *type = frame.find("type");
    if (type == nullptr || !type->isString())
        throw CodecError("frame has no string \"type\" member");
    return type->asString();
}

} // namespace service
} // namespace shotgun
