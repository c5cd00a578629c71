#include "service/client.hh"

namespace shotgun
{
namespace service
{

using json::Value;

ServiceClient::ServiceClient(const std::string &endpoint_spec,
                             unsigned timeout_seconds)
    : endpoint_(endpoint_spec),
      timeoutSeconds_(timeout_seconds),
      channel_(connectTo(Endpoint::parse(endpoint_spec)))
{
    if (timeoutSeconds_ != 0)
        channel_.socket().setRecvTimeout(timeoutSeconds_ * 1000u);
}

std::string
ServiceClient::recvLineOrThrow()
{
    std::string line;
    if (channel_.recvLine(line))
        return line;
    if (channel_.timedOut())
        throw SocketError(
            "server " + endpoint_ + " sent nothing for " +
            std::to_string(timeoutSeconds_) +
            "s (stalled or wedged?); raise --timeout for very long "
            "grid points");
    throw SocketError("server " + endpoint_ +
                      " closed the connection");
}

json::Value
ServiceClient::request(const json::Value &frame)
{
    return request(frame.dump());
}

json::Value
ServiceClient::request(std::string line)
{
    if (!channel_.sendLine(std::move(line)))
        throw SocketError("send to " + endpoint_ + " failed");
    Value reply = Value::parse(recvLineOrThrow());
    if (frameType(reply) == "error")
        throw ServiceError(endpoint_ + ": " +
                           reply.at("message").asString());
    return reply;
}

std::vector<SimResult>
ServiceClient::submit(
    const SubmitRequest &request_data,
    const std::function<void(const ResultEvent &)> &on_result)
{
    const Value accepted = request(encodeFrame(request_data));
    if (frameType(accepted) != "accepted")
        throw ServiceError(endpoint_ + ": expected `accepted`, got `" +
                           frameType(accepted) + "`");
    const std::uint64_t job = accepted.at("job").asU64();
    const std::uint64_t total = accepted.at("total").asU64();
    if (total != request_data.grid.size())
        throw ServiceError(endpoint_ +
                           ": server accepted a different grid size");

    std::vector<SimResult> results(request_data.grid.size());
    std::vector<char> seen(request_data.grid.size(), 0);
    std::uint64_t received = 0;

    while (true) {
        const Value frame = Value::parse(recvLineOrThrow());
        const std::string type = frameType(frame);
        if (type == "result") {
            ResultEvent event = decodeFrame<ResultEvent>(frame);
            if (event.job != job)
                continue; // Another interleaved job's stream.
            if (event.index >= results.size() || seen[event.index])
                throw ServiceError(endpoint_ +
                                   ": bad result index " +
                                   std::to_string(event.index));
            results[event.index] = event.result;
            seen[event.index] = 1;
            ++received;
            if (on_result)
                on_result(event);
        } else if (type == "done") {
            const DoneEvent done = decodeFrame<DoneEvent>(frame);
            if (done.job != job)
                continue;
            if (done.status != "ok")
                throw ServiceError(
                    endpoint_ + ": job " + std::to_string(job) + " " +
                    done.status +
                    (done.message.empty() ? "" : ": " + done.message));
            if (received != results.size())
                throw ServiceError(endpoint_ + ": job " +
                                   std::to_string(job) +
                                   " done after " +
                                   std::to_string(received) + "/" +
                                   std::to_string(results.size()) +
                                   " results");
            return results;
        } else if (type == "error") {
            throw ServiceError(endpoint_ + ": " +
                               frame.at("message").asString());
        }
        // Ignore unrelated frame types (forward compatibility).
    }
}

json::Value
ServiceClient::status()
{
    Value reply = request(makeFrame("status"));
    if (frameType(reply) != "status")
        throw ServiceError(endpoint_ + ": expected `status` reply");
    return reply;
}

bool
ServiceClient::ping()
{
    return frameType(request(makeFrame("ping"))) == "pong";
}

void
ServiceClient::cancel(std::uint64_t job)
{
    Value frame = makeFrame("cancel");
    frame.set("job", Value::number(job));
    (void)request(frame);
}

void
ServiceClient::shutdownServer()
{
    Value reply = request(makeFrame("shutdown"));
    if (frameType(reply) != "bye")
        throw ServiceError(endpoint_ + ": expected `bye` reply");
}

} // namespace service
} // namespace shotgun
