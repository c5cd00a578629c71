#include "runner/dispatcher.hh"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.hh"

namespace shotgun
{
namespace runner
{

namespace
{

/**
 * True when `predecessor` has `size` entries, each kNoPredecessor or
 * another grid index, and following predecessors from any point ends
 * at an ungated one -- so every gate eventually opens.
 */
bool
acyclicGate(const std::vector<std::size_t> &predecessor, std::size_t size)
{
    constexpr std::size_t kNone = Dispatcher::kNoPredecessor;
    if (predecessor.size() != size)
        return false;
    // 0 = unvisited, 1 = on the current walk, 2 = reaches an ungated
    // point.
    std::vector<char> mark(size, 0);
    for (std::size_t i = 0; i < size; ++i) {
        std::size_t j = i;
        while (j != kNone && j < size && mark[j] == 0) {
            mark[j] = 1;
            j = predecessor[j];
        }
        if (j != kNone && (j >= size || mark[j] == 1))
            return false;
        for (std::size_t k = i; k != j; k = predecessor[k])
            mark[k] = 2;
    }
    return true;
}

} // namespace

Dispatcher::Plan
Dispatcher::plan(const std::vector<std::uint64_t> &cost, const Gate &gate)
{
    Plan plan;
    plan.order.resize(cost.size());
    std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
    std::sort(plan.order.begin(), plan.order.end(),
              [&cost](std::size_t a, std::size_t b) {
                  return cost[a] != cost[b] ? cost[a] > cost[b] : a < b;
              });
    if (gate && !cost.empty()) {
        plan.predecessor = gate(plan.order);
        panic_if(!acyclicGate(plan.predecessor, cost.size()),
                 "predecessor gate of a %zu-point grid is not an "
                 "acyclic map of grid indices",
                 cost.size());
    }
    return plan;
}

void
Dispatcher::submit(JobId id, Plan plan, unsigned budget,
                   std::uint64_t weight)
{
    Job &job = jobs_[id];
    job.state.assign(plan.order.size(), Point::Queued);
    job.queued = plan.order.size();
    job.plan = std::move(plan);
    job.budget = budget;
    job.weight = std::max<std::uint64_t>(1, weight);
}

void
Dispatcher::prefill(JobId id, std::size_t index)
{
    Job &job = jobs_.at(id);
    job.state[index] = Point::Done;
    --job.queued;
    job.advance();
}

std::size_t
Dispatcher::nextEligible(const Job &job)
{
    const std::size_t size = job.state.size();
    if (job.plan.predecessor.empty())
        return job.nextDispatch;
    for (std::size_t s = job.nextDispatch; s < size; ++s) {
        const std::size_t i = job.plan.order[s];
        const std::size_t p = job.plan.predecessor[i];
        if (job.state[i] == Point::Queued &&
            (p == kNoPredecessor || job.state[p] == Point::Done ||
             job.state[p] == Point::Failed))
            return s;
    }
    return size;
}

bool
Dispatcher::canDispatch(const Job &job)
{
    return !job.stopped() &&
           (job.budget == 0 || job.active < job.budget) &&
           nextEligible(job) < job.state.size();
}

bool
Dispatcher::dispatchable() const
{
    for (const auto &entry : jobs_) {
        if (canDispatch(entry.second))
            return true;
    }
    return false;
}

Dispatcher::Dispatch
Dispatcher::pick()
{
    // Stride scheduling: the lowest served/weight ratio goes next,
    // cross-multiplied to stay in integers. Iteration is in id
    // order, so a tie keeps the older job.
    Dispatch out;
    Job *best = nullptr;
    for (auto &entry : jobs_) {
        Job &job = entry.second;
        if (canDispatch(job) &&
            (best == nullptr ||
             job.served * best->weight < best->served * job.weight)) {
            best = &job;
            out.job = entry.first;
        }
    }
    if (best == nullptr)
        return out;
    const std::size_t slot = nextEligible(*best);
    out.index = best->plan.order[slot];
    out.ticket = nextTicket_++;
    out.first = best->served++ == 0;
    best->state[out.index] = Point::InFlight;
    ++best->active;
    --best->queued;
    best->advance();
    inflight_.emplace(out.ticket, Where{out.job, out.index});
    return out;
}

Dispatcher::Job *
Dispatcher::release(Ticket ticket, Point state, Where &where)
{
    const auto it = inflight_.find(ticket);
    if (it == inflight_.end())
        return nullptr;
    where = it->second;
    inflight_.erase(it);
    Job &job = jobs_.at(where.job);
    job.state[where.index] = state;
    --job.active;
    return &job;
}

bool
Dispatcher::complete(Ticket ticket)
{
    Where where;
    return release(ticket, Point::Done, where) != nullptr;
}

bool
Dispatcher::fail(Ticket ticket, std::exception_ptr error)
{
    Where where;
    if (release(ticket, Point::Failed, where) == nullptr)
        return false;
    fail(where.job, where.index, std::move(error));
    return true;
}

void
Dispatcher::fail(JobId id, std::size_t index, std::exception_ptr error)
{
    // Keep the lowest-index failure: several in-flight points can
    // fail together, and the report must not depend on which one
    // came back first.
    Job &job = jobs_.at(id);
    if (index < job.errorIndex) {
        job.errorIndex = index;
        job.error = std::move(error);
    }
    job.queued = 0;
}

void
Dispatcher::lose(Ticket ticket)
{
    Where where;
    Job *job = release(ticket, Point::Queued, where);
    if (job == nullptr || job->stopped())
        return;
    ++job->queued;
    const auto &order = job->plan.order;
    job->nextDispatch = std::min<std::size_t>(
        job->nextDispatch,
        std::find(order.begin(), order.end(), where.index) -
            order.begin());
}

void
Dispatcher::cancel(JobId id)
{
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return;
    it->second.cancelled = true;
    it->second.queued = 0;
}

Dispatcher::Run
Dispatcher::takeEmit(JobId id, bool holding)
{
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || (it->second.emitting && !holding))
        return {};
    // A failed job emits up to its lowest failure, never past it.
    Job &job = it->second;
    const std::size_t end = std::min(job.state.size(), job.errorIndex);
    Run run{job.nextEmit, job.nextEmit};
    while (run.to < end && job.state[run.to] == Point::Done)
        ++run.to;
    job.nextEmit = run.to;
    job.emitting = !run.empty();
    return run;
}

bool
Dispatcher::finish(JobId id, Outcome &outcome)
{
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    // Over once nothing is in flight or being emitted and the job has
    // emitted all it ever will: every point, or, once it stopped, its
    // ready prefix (up to the lowest failure).
    const Job &job = it->second;
    const std::size_t size = job.state.size();
    const std::size_t end = std::min(size, job.errorIndex);
    if (job.active != 0 || job.emitting ||
        (job.nextEmit < end && (!job.stopped() ||
                                job.state[job.nextEmit] == Point::Done)))
        return false;
    outcome.completed = job.nextEmit;
    outcome.error = job.error;
    outcome.status = job.errorIndex != kNoFailure
                         ? Outcome::Status::Error
                         : job.nextEmit == size ? Outcome::Status::Ok
                                                : Outcome::Status::Cancelled;
    jobs_.erase(it);
    return true;
}

std::size_t
Dispatcher::queued() const
{
    std::size_t total = 0;
    for (const auto &entry : jobs_)
        total += entry.second.queued;
    return total;
}

} // namespace runner
} // namespace shotgun
