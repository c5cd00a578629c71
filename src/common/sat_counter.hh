/**
 * @file
 * Saturating counters, the bread-and-butter state element of branch
 * predictors and replacement policies.
 */

#ifndef SHOTGUN_COMMON_SAT_COUNTER_HH
#define SHOTGUN_COMMON_SAT_COUNTER_HH

#include <cstdint>

#include "common/logging.hh"

namespace shotgun
{

/**
 * An n-bit unsigned saturating counter. For direction prediction the
 * conventional interpretation is taken iff the counter is in the upper
 * half of its range.
 */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : bits_(bits), value_(initial)
    {
        panic_if(bits == 0 || bits > 16, "SatCounter bits out of range");
        panic_if(initial > max(), "SatCounter initial value too large");
    }

    unsigned max() const { return (1u << bits_) - 1; }
    unsigned value() const { return value_; }
    unsigned bits() const { return bits_; }

    /** Saturating increment. */
    void
    increment()
    {
        if (value_ < max())
            ++value_;
    }

    /** Saturating decrement. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Move toward taken/not-taken. */
    void
    update(bool taken)
    {
        if (taken)
            increment();
        else
            decrement();
    }

    /** Predicted direction: upper half of the range means taken. */
    bool predictTaken() const { return value_ >= (1u << (bits_ - 1)); }

    /** True when the counter sits at either extreme. */
    bool saturated() const { return value_ == 0 || value_ == max(); }

    /** Reset to a specific value (e.g. weakly taken on allocation). */
    void
    set(unsigned value)
    {
        panic_if(value > max(), "SatCounter::set beyond max");
        value_ = value;
    }

    /** Weakly-taken initialization value for this width. */
    unsigned weakTaken() const { return 1u << (bits_ - 1); }

  private:
    unsigned bits_;
    unsigned value_;
};

} // namespace shotgun

#endif // SHOTGUN_COMMON_SAT_COUNTER_HH
