// Fixture: codec-coverage. `label` is missing from WireConfig's field
// list -> one finding, anchored at the list. The static member is not
// wire state and needs no entry.
#include <cstdint>
#include <string>

namespace fix
{

struct WireConfig
{
    std::uint64_t alpha = 0;
    std::uint64_t beta = 0;
    std::string label;

    static constexpr int kVersion = 1;
};

template <typename V>
void
fields(V &v, WireConfig &c)
{
    v("alpha", c.alpha);
    v("beta", c.beta);
}

} // namespace fix
