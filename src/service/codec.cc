#include "service/codec.hh"

#include <array>
#include <cctype>
#include <filesystem>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>

#include "sim/fields.hh"

namespace shotgun
{
namespace service
{

namespace
{

using json::Value;

/**
 * The strict decoder: runs a struct's field list over one parsed JSON
 * object. Every member must be consumed exactly once, and finish()
 * rejects members nobody asked for. This is what turns "decode" into
 * "validate": a frame with a typo'd or extra field is an error, not a
 * silently-defaulted config. A decoded struct must then pass its
 * brokenRule().
 *
 * The lists ask for members in canonical order, so each lookup first
 * tries the member after the last one read and scans the object only
 * when the input is reordered. Readers nest on the stack; an error
 * names the path of the object it came from ("config.core").
 */
class FieldReader
{
  public:
    /** Decode `v` into `s` as the member `name` of `parent`. */
    template <typename S>
    static void
    decode(const Value &v, S &s, const FieldReader *parent,
           std::string_view name)
    {
        FieldReader r(v, parent, name);
        fields(r, s);
        r.finish();
        if (const char *rule = brokenRule(s))
            throw CodecError(r.path() + ": " + rule);
    }

    /** The compact string form is a workload too (see the header). */
    static void
    decode(const Value &v, WorkloadPreset &preset,
           const FieldReader *parent, std::string_view name)
    {
        if (v.isString())
            preset = decodeWorkloadPreset(v);
        else
            decode<WorkloadPreset>(v, preset, parent, name);
    }

    void operator()(std::string_view key, std::string &s)
    {
        s = get(key).asString();
    }

    void operator()(std::string_view key, double &d)
    {
        d = get(key).asDouble();
    }

    void operator()(std::string_view key, bool &b)
    {
        b = get(key).asBool();
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view key, T &n)
    {
        const std::uint64_t v = get(key).asU64();
        if (v > std::numeric_limits<T>::max())
            throw CodecError(path() + ": field \"" + std::string(key) +
                             "\" out of range");
        n = static_cast<T>(v);
    }

    template <typename E>
    void
    operator()(std::string_view key, E &e, EnumNames<E> names)
    {
        const std::string &name = get(key).asString();
        for (std::size_t i = 0; i < names.count; ++i) {
            if (name == names.name(static_cast<E>(i))) {
                e = static_cast<E>(i);
                return;
            }
        }
        throw CodecError(path() + ": unknown " + std::string(key) +
                         " \"" + name + "\"");
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    operator()(std::string_view key, S &s)
    {
        decode(get(key), s, this, key);
    }

    template <typename S>
    void
    operator()(std::string_view key, std::vector<S> &items)
    {
        const Value &array = get(key);
        if (!array.isArray())
            throw CodecError(path() + "." + std::string(key) +
                             ": expected an array");
        items.assign(array.items().size(), S{});
        for (std::size_t i = 0; i < items.size(); ++i)
            decode(array.items()[i], items[i], this, key);
    }

    void binding(std::string_view key, std::string &s) { (*this)(key, s); }

    /** Optional member: decoded when present, left default when not. */
    template <typename S>
    void
    optional(std::string_view key, S &s, bool)
    {
        if (const Value *v = find(key))
            decode(*v, s, this, key);
    }

    template <typename S, std::size_t N, typename E>
    void
    table(std::string_view key, std::array<S, N> &items,
          std::string_view label, EnumNames<E> names)
    {
        const Value &array = get(key);
        if (!array.isArray() || array.items().size() != N)
            throw CodecError(path() + "." + std::string(key) +
                             ": expected an array of " +
                             std::to_string(N) + " entries");
        for (std::size_t i = 0; i < N; ++i) {
            FieldReader r(array.items()[i], this, key);
            const std::string &name = r.get(label).asString();
            if (name != names.name(static_cast<E>(i)))
                throw CodecError(r.path() + ": " + std::string(label) +
                                 " \"" + name + "\" out of order");
            fields(r, items[i]);
            r.finish();
        }
    }

  private:
    /** Wider objects than any wire struct are rejected outright. */
    static constexpr std::size_t kMaxMembers = 64;

    FieldReader(const Value &v, const FieldReader *parent,
                std::string_view name)
        : parent_(parent), name_(name)
    {
        if (!v.isObject())
            throw CodecError(path() + ": expected an object");
        members_ = &v.members();
        if (members_->size() > kMaxMembers)
            throw CodecError(path() + ": too many members");
    }

    std::string
    path() const
    {
        return parent_ == nullptr ? std::string(name_)
                                  : parent_->path() + "." +
                                        std::string(name_);
    }

    const Value *
    find(std::string_view key)
    {
        const auto &members = *members_;
        std::size_t i = next_;
        if (i >= members.size() || members[i].first != key) {
            i = 0;
            while (i < members.size() && members[i].first != key)
                ++i;
            if (i == members.size())
                return nullptr;
        }
        consumed_ |= std::uint64_t{1} << i;
        next_ = i + 1;
        return &members[i].second;
    }

    const Value &
    get(std::string_view key)
    {
        if (const Value *v = find(key))
            return *v;
        throw CodecError(path() + ": missing field \"" +
                         std::string(key) + "\"");
    }

    void
    finish() const
    {
        const auto &members = *members_;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if ((consumed_ >> i & 1) == 0)
                throw CodecError(path() + ": unknown field \"" +
                                 members[i].first + "\"");
        }
    }

    const FieldReader *parent_;
    std::string_view name_;
    const std::vector<Value::Member> *members_ = nullptr;
    std::uint64_t consumed_ = 0; ///< Bit i: member i was read.
    std::size_t next_ = 0;       ///< Canonical position of the next member.
};

template <typename S>
S
decodeAs(const Value &v, std::string_view name)
{
    S s;
    FieldReader::decode(v, s, nullptr, name);
    return s;
}

} // namespace

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

StatsDelta
decodeStatsDelta(const json::Value &v)
{
    return decodeAs<StatsDelta>(v, "delta");
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
