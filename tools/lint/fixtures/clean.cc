// Fixture: a file doing everything right, in scope for every check
// -> zero findings. Ordered containers with value keys, a custom
// comparator for the pointer-keyed set, a complete copy constructor,
// initialized scalars, find() for optional protocol members, a field
// list naming every member of its struct.
#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace fix
{

struct Stable
{
    bool operator()(const int *a, const int *b) const;
};

struct Frame
{
    const Frame *find(const std::string &key) const;
    bool boolean() const;
};

class Model
{
  public:
    Model() = default;
    Model(const Model &other)
        : table_(other.table_), seed_(other.seed_),
          ptrs_(other.ptrs_)
    {
    }

    std::uint64_t
    sum() const
    {
        std::uint64_t s = 0;
        for (const auto &kv : table_)
            s += kv.second;
        return s;
    }

    bool
    timingOn(const Frame &f) const
    {
        const Frame *t = f.find("timing");
        return t != nullptr && t->boolean();
    }

  private:
    std::map<std::uint64_t, std::uint64_t> table_;
    std::uint64_t seed_ = 1;
    std::set<const int *, Stable> ptrs_;
};

struct Window
{
    std::uint64_t start = 0;
    std::uint64_t end = 0;

    bool enabled() const { return end != 0; }
};

template <typename V>
void
fields(V &v, Window &w)
{
    v("start", w.start);
    v("end", w.end);
}

} // namespace fix
