#include "noc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace shotgun
{

MeshModel::MeshModel(const MeshParams &params)
    : params_(params)
{
    fatal_if(params_.dim == 0, "mesh dimension must be positive");
    fatal_if(params_.serviceCapacity <= 0.0,
             "mesh service capacity must be positive");
    // Mean one-way Manhattan distance between uniformly random tiles
    // of a dim x dim mesh is 2*(dim^2-1)/(3*dim); for 4x4 that is
    // 2.5 hops.
    const double dim = static_cast<double>(params_.dim);
    const double mean_hops = 2.0 * (dim * dim - 1.0) / (3.0 * dim);
    baseLlc_ = static_cast<Cycle>(
        std::lround(2.0 * mean_hops * params_.hopCycles) +
        params_.llcAccessCycles);
}

void
MeshModel::advance(Cycle now)
{
    const Cycle window = now / params_.rateWindow;
    if (window == curWindow_)
        return;
    if (window == curWindow_ + 1) {
        prevRate_ = static_cast<double>(curCount_) /
                    static_cast<double>(params_.rateWindow);
    } else {
        // Idle gap: the measured rate decays to zero.
        prevRate_ = 0.0;
    }
    curWindow_ = window;
    curCount_ = 0;
}

void
MeshModel::noteRequest(Cycle now)
{
    advance(now);
    ++curCount_;
}

double
MeshModel::ownRate(Cycle now)
{
    advance(now);
    return prevRate_;
}

double
MeshModel::utilization(Cycle now)
{
    const double load = params_.backgroundLoad +
                        static_cast<double>(params_.numCores) *
                            ownRate(now);
    return std::min(load / params_.serviceCapacity, 0.98);
}

Cycle
MeshModel::queueCycles(Cycle now)
{
    const double rho = utilization(now);
    const double delay = params_.queueFactor * rho / (1.0 - rho);
    return static_cast<Cycle>(std::min<double>(
        delay, static_cast<double>(params_.maxQueueCycles)));
}

Cycle
MeshModel::llcLatency(Cycle now)
{
    return baseLlc_ + queueCycles(now);
}

Cycle
MeshModel::memoryLatency(Cycle now)
{
    return baseLlc_ + params_.memoryCycles + queueCycles(now);
}

} // namespace shotgun
