/**
 * @file
 * Strict decoding of the canonical encodings (sim/canonical.hh): one
 * reader, FieldReader, runs each struct's field list (sim/fields.hh,
 * and service/protocol.hh for the frames and the values they carry)
 * over a parsed JSON object.
 *
 * Decoding is strict: a missing field, an unknown field, a kind
 * mismatch or a value the simulator cannot run (the struct's
 * brokenRule()) raises CodecError (derived from json::JsonError) --
 * frames are rejected, the process never dies.
 *
 * Workloads round-trip two ways: the canonical form embeds the full
 * WorkloadPreset (program-model parameters, data-side knobs and the
 * trace path), while decode also accepts a compact string -- a preset
 * name ("oracle") or a `trace:<path>[:name]` spec -- which is
 * resolved through presetByName(), letting hand-written submissions
 * reference a workload the way every bench command line does.
 */

#ifndef SHOTGUN_SERVICE_CODEC_HH
#define SHOTGUN_SERVICE_CODEC_HH

#include <array>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "obs/uarch.hh"
#include "sim/canonical.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace service
{

/** Strict decode failure: the message names field and problem. */
struct CodecError : json::JsonError
{
    explicit CodecError(const std::string &what) : json::JsonError(what)
    {
    }
};

// ------------------------------------------------------------- encode

// The canonical encoders and identity live in the sim layer; these
// keep the service-qualified names working.
using shotgun::configFingerprint;
using shotgun::encodeSimConfig;
using shotgun::encodeSimResult;
using shotgun::encodeStatsDelta;
using shotgun::encodeUarchBreakdown;
using shotgun::fingerprintHex;

// ------------------------------------------------------------- decode

/**
 * Accepts the canonical object form or a compact string (preset name
 * or `trace:<path>[:name]` spec). A string trace spec requires the
 * trace file to be readable here -- its header is the preset.
 */
WorkloadPreset decodeWorkloadPreset(const json::Value &v);

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
 * names the path of the object it came from ("submit.grid.config").
 */
class FieldReader
{
  public:
    /** Decode `v` into `s` as the member `name` of `parent`. */
    template <typename S>
    static void
    decode(const json::Value &v, S &s, const FieldReader *parent,
           std::string_view name)
    {
        FieldReader(v, parent, name).run(s);
    }

    /** The compact string form is a workload too (see above). */
    static void
    decode(const json::Value &v, WorkloadPreset &preset,
           const FieldReader *parent, std::string_view name)
    {
        if (v.isString())
            preset = decodeWorkloadPreset(v);
        else
            FieldReader(v, parent, name).run(preset);
    }

    /**
     * Decode a frame: its "type" member must be `type`, which names
     * it in errors; the other members are `s`'s list.
     */
    template <typename S>
    static void
    decodeFrame(const json::Value &v, S &s, std::string_view type)
    {
        FieldReader r(v, nullptr, type);
        const std::string &got = r.get("type").asString();
        if (got != type)
            throw CodecError("expected a \"" + std::string(type) +
                             "\" frame, got \"" + got + "\"");
        r.run(s);
    }

    template <typename T>
    void operator()(std::string_view key, T &m)
    {
        read(key, get(key), m);
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

    void binding(std::string_view key, std::string &s) { (*this)(key, s); }

    /**
     * Optional member (common/wire.hh): read when its key is there,
     * left default when not. A presence flag (an lvalue `present`)
     * follows the key.
     */
    template <typename T, typename P>
    void
    optional(std::string_view key, T &m, P &&present)
    {
        const json::Value *v = find(key);
        if constexpr (std::is_lvalue_reference_v<P>)
            present = v != nullptr;
        if (v != nullptr)
            read(key, *v, m);
    }

    template <typename S, std::size_t N, typename E>
    void
    table(std::string_view key, std::array<S, N> &items,
          std::string_view label, EnumNames<E> names)
    {
        const json::Value &array = get(key);
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

    FieldReader(const json::Value &v, const FieldReader *parent,
                std::string_view name)
        : parent_(parent), name_(name)
    {
        if (!v.isObject())
            throw CodecError(path() + ": expected an object");
        members_ = &v.members();
        if (members_->size() > kMaxMembers)
            throw CodecError(path() + ": too many members");
    }

    template <typename S>
    void
    run(S &s)
    {
        fields(*this, s);
        finish();
        if (const char *rule = brokenRule(s))
            throw CodecError(path() + ": " + rule);
    }

    void read(std::string_view, const json::Value &v, std::string &s)
    {
        s = v.asString();
    }

    void read(std::string_view, const json::Value &v, double &d)
    {
        d = v.asDouble();
    }

    void read(std::string_view, const json::Value &v, bool &b)
    {
        b = v.asBool();
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    read(std::string_view key, const json::Value &v, T &n)
    {
        const std::uint64_t u = v.asU64();
        if (u > std::numeric_limits<T>::max())
            throw CodecError(path() + ": field \"" + std::string(key) +
                             "\" out of range");
        n = static_cast<T>(u);
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    read(std::string_view key, const json::Value &v, S &s)
    {
        decode(v, s, this, key);
    }

    template <typename S>
    void
    read(std::string_view key, const json::Value &array,
         std::vector<S> &items)
    {
        if (!array.isArray())
            throw CodecError(path() + "." + std::string(key) +
                             ": expected an array");
        items.assign(array.items().size(), S{});
        for (std::size_t i = 0; i < items.size(); ++i)
            decode(array.items()[i], items[i], this, key);
    }

    std::string
    path() const
    {
        return parent_ == nullptr ? std::string(name_)
                                  : parent_->path() + "." +
                                        std::string(name_);
    }

    const json::Value *
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

    const json::Value &
    get(std::string_view key)
    {
        if (const json::Value *v = find(key))
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
    const std::vector<json::Value::Member> *members_ = nullptr;
    std::uint64_t consumed_ = 0; ///< Bit i: member i was read.
    std::size_t next_ = 0;       ///< Canonical position of the next member.
};

/** Strictly decode a struct with a field list; `name` heads errors. */
template <typename S>
S
decodeAs(const json::Value &v, std::string_view name)
{
    S s;
    FieldReader::decode(v, s, nullptr, name);
    return s;
}

/**
 * Strict decode plus semantic validation (an enabled window must be
 * a non-empty range; a stream skip needs a window): an invalid
 * window is a rejected frame, never a fatal() inside a simulation
 * worker thread of the daemon. Every decoder validates the same way.
 */
SimWindow decodeSimWindow(const json::Value &v);

SimConfig decodeSimConfig(const json::Value &v);
SimResult decodeSimResult(const json::Value &v);

// ------------------------------------------------- trace validation

/**
 * Non-fatal trace-file sanity probe for the service boundary (the
 * trace reader proper is fatal() on damage -- right for a CLI,
 * lethal for a daemon). Wraps trace_io's tryReadTraceInfo() -- valid
 * v2 header, payload backs the claimed record count -- and
 * additionally requires at least `needed_instructions`. Returns
 * false with a message in `error`; does not throw. `info` (optional)
 * receives the parsed header so callers can cross-check the embedded
 * preset against a submitted config. Damage to record *content* is
 * still only caught by the reader mid-run.
 */
bool probeTraceFile(const std::string &path,
                    std::uint64_t needed_instructions,
                    std::string &error, TraceInfo *info = nullptr);

} // namespace service
} // namespace shotgun

#endif // SHOTGUN_SERVICE_CODEC_HH
