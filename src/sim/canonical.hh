/**
 * @file
 * The canonical encoding of the wire structs: every field, always, in
 * the order of its field list (sim/fields.hh), as compact single-line
 * JSON. A config's encoding is the one identity it has, and every
 * cache keys on it --
 *
 *  - configFingerprint() (FNV-1a over the canonical bytes) keys the
 *    service's result cache and the fleet's disk cache, and merges
 *    the figure driver's union grid (bench/figures.cc);
 *  - checkpointKey() (sim/checkpoint.hh) is the fingerprint of the
 *    config with its measurement bounds blanked;
 *  - outcomeKey() (sim/outcome_store.hh) hashes just what a stream
 *    and its data-side draws depend on: the workload, the seed (or
 *    the trace header) and the window skip;
 *  - programFor() keys program images on the ProgramParams encoding.
 *
 * Two writers produce it, both runs of the same field lists: the
 * streaming writeCanonical() (straight into a frame, a key or a hash,
 * no tree) and encodeTree(), whose dump() is the same bytes. They run
 * any struct with a field list, the protocol frames of
 * service/protocol.hh included. The same objects decode strictly
 * through service/codec.hh, and a decoded config re-encodes to the
 * same bytes, so configs can be logged and replayed years later.
 */

#ifndef SHOTGUN_SIM_CANONICAL_HH
#define SHOTGUN_SIM_CANONICAL_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "obs/uarch.hh"
#include "sim/fields.hh"
#include "sim/simulator.hh"

namespace shotgun
{

/** A field list streamed through a json::Writer. */
class StreamVisitor
{
  public:
    explicit StreamVisitor(json::Writer &w) : w_(w) {}

    template <typename S>
    void
    object(const S &s)
    {
        w_.beginObject();
        visitFields(*this, s);
        w_.endObject();
    }

    void operator()(std::string_view key, const std::string &s)
    {
        w_.key(key).string(s);
    }

    void operator()(std::string_view key, double d) { w_.key(key).number(d); }
    void operator()(std::string_view key, bool b) { w_.key(key).boolean(b); }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view key, T n)
    {
        w_.key(key).number(std::uint64_t{n});
    }

    template <typename E>
    void
    operator()(std::string_view key, E e, EnumNames<E> names)
    {
        w_.key(key).string(names.name(e));
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    operator()(std::string_view key, const S &s)
    {
        w_.key(key);
        object(s);
    }

    template <typename S>
    void
    operator()(std::string_view key, const std::vector<S> &items)
    {
        w_.key(key).beginArray();
        for (const S &item : items)
            object(item);
        w_.endArray();
    }

    void binding(std::string_view key, const std::string &s)
    {
        (*this)(key, s);
    }

    template <typename S>
    void
    optional(std::string_view key, const S &s, bool present)
    {
        if (present)
            (*this)(key, s);
    }

    template <typename S, std::size_t N, typename E>
    void
    table(std::string_view key, const std::array<S, N> &items,
          std::string_view label, EnumNames<E> names)
    {
        w_.key(key).beginArray();
        for (std::size_t i = 0; i < N; ++i) {
            w_.beginObject();
            w_.key(label).string(names.name(static_cast<E>(i)));
            visitFields(*this, items[i]);
            w_.endObject();
        }
        w_.endArray();
    }

  private:
    json::Writer &w_;
};

/**
 * A field list built into a json::Value object. Every member is
 * constructed in place in Value::set's parameter, as hand-written
 * `set(key, Value::number(x))` calls would.
 */
class TreeVisitor
{
  public:
    template <typename S>
    static json::Value
    object(const S &s)
    {
        TreeVisitor v;
        visitFields(v, s);
        return std::move(v.object_);
    }

    void operator()(std::string_view key, const std::string &s)
    {
        object_.set(std::string(key), json::Value::string(s));
    }

    void operator()(std::string_view key, double d)
    {
        object_.set(std::string(key), json::Value::number(d));
    }

    void operator()(std::string_view key, bool b)
    {
        object_.set(std::string(key), json::Value::boolean(b));
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view key, T n)
    {
        object_.set(std::string(key),
                    json::Value::number(std::uint64_t{n}));
    }

    template <typename E>
    void
    operator()(std::string_view key, E e, EnumNames<E> names)
    {
        object_.set(std::string(key), json::Value::string(names.name(e)));
    }

    template <typename S>
    std::enable_if_t<std::is_class_v<S>>
    operator()(std::string_view key, const S &s)
    {
        object_.set(std::string(key), object(s));
    }

    template <typename S>
    void
    operator()(std::string_view key, const std::vector<S> &items)
    {
        json::Value array = json::Value::array();
        for (const S &item : items)
            array.push(object(item));
        object_.set(std::string(key), std::move(array));
    }

    void binding(std::string_view key, const std::string &s)
    {
        (*this)(key, s);
    }

    template <typename S>
    void
    optional(std::string_view key, const S &s, bool present)
    {
        if (present)
            (*this)(key, s);
    }

    template <typename S, std::size_t N, typename E>
    void
    table(std::string_view key, const std::array<S, N> &items,
          std::string_view label, EnumNames<E> names)
    {
        json::Value array = json::Value::array();
        for (std::size_t i = 0; i < N; ++i) {
            TreeVisitor entry;
            entry(label, static_cast<E>(i), names);
            visitFields(entry, items[i]);
            array.push(std::move(entry.object_));
        }
        object_.set(std::string(key), std::move(array));
    }

  private:
    json::Value object_ = json::Value::object();
};

/**
 * Stream the canonical encoding of a struct as the next value of `w`:
 * the bytes encodeTree(s).dump() produces, without the tree.
 */
template <typename S>
void
writeCanonical(json::Writer &w, const S &s)
{
    StreamVisitor(w).object(s);
}

/** The canonical encoding of a struct as a json::Value object. */
template <typename S>
json::Value
encodeTree(const S &s)
{
    return TreeVisitor::object(s);
}

json::Value encodeSimConfig(const SimConfig &config);
json::Value encodeSimResult(const SimResult &result);

/**
 * Raw per-window counters (sim/stats_delta.hh), shipped in windowed
 * `result` frames so the client stitches from exact integers, never
 * from derived doubles.
 */
json::Value encodeStatsDelta(const StatsDelta &delta);

/**
 * Microarchitectural probe payload (obs/uarch.hh). SimResult and
 * StatsDelta embed it as the *optional* "uarch" member, emitted only
 * when the run had probes enabled, so probe-free payloads are
 * byte-identical to what they were before the probe layer existed.
 */
json::Value encodeUarchBreakdown(const obs::UarchBreakdown &u);

/** writeCanonical() into a fresh string. */
template <typename T>
std::string
canonicalText(const T &x)
{
    std::string out;
    json::Writer w(out);
    writeCanonical(w, x);
    return out;
}

/**
 * Stable identity of a simulation: 16 lowercase hex digits of the
 * FNV-1a 64 hash over the canonical encoding. Two configs share a
 * fingerprint iff they encode to the same bytes.
 *
 * Note a trace-backed workload is fingerprinted by its trace *path*
 * plus the header-derived preset, not the file content; re-recording
 * a different workload over the same path on a live server would
 * alias cache entries. Don't do that.
 */
std::string configFingerprint(const SimConfig &config);

/** The 16-hex-digit rendering of an FNV-1a hash (exposed for tests). */
std::string fingerprintHex(std::uint64_t hash);

} // namespace shotgun

#endif // SHOTGUN_SIM_CANONICAL_HH
