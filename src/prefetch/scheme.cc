#include "prefetch/scheme.hh"

namespace shotgun
{

bool
Scheme::predictControl(const BBRecord &truth,
                       ReturnAddressStack::Entry *popped)
{
    switch (truth.type) {
      case BranchType::None:
        return false;
      case BranchType::Conditional: {
        // Degenerate conditionals whose taken target equals the
        // fall-through cannot redirect; do not train on them.
        if (truth.target == truth.fallThrough())
            return false;
        return ctx_.outcomes->mispredicts(truth.branchPC(), truth.taken);
      }
      case BranchType::Call:
      case BranchType::Trap:
        ctx_.ras->push(truth.fallThrough(), truth.startAddr);
        return false; // Direct target; statically correct.
      case BranchType::Jump:
        return false;
      case BranchType::Return:
      case BranchType::TrapReturn: {
        const auto entry = ctx_.ras->pop();
        if (popped)
            *popped = entry;
        return !entry.valid || entry.returnAddr != truth.target;
      }
      default:
        panic("predictControl: invalid branch type");
    }
}

void
Scheme::probeBBBlocks(const BBRecord &record, Cycle now)
{
    for (Addr block = record.firstBlock(); block <= record.lastBlock();
         ++block) {
        ctx_.mem->issuePrefetch(block, now);
    }
}

void
Scheme::wrongPathProbes(const BBRecord &truth, bool after_misfetch,
                        Cycle now, unsigned blocks)
{
    Addr wrong_addr;
    if (after_misfetch) {
        // Straight-line speculation past the (actually taken) branch.
        wrong_addr = truth.fallThrough();
    } else {
        // Direction mispredict: the prefetcher ran down the arm the
        // branch did not take.
        wrong_addr = truth.taken ? truth.fallThrough() : truth.target;
    }
    const Addr first = blockNumber(wrong_addr);
    for (unsigned i = 0; i < blocks; ++i)
        ctx_.mem->issuePrefetch(first + i, now);
}

} // namespace shotgun
