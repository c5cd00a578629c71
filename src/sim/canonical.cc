#include "sim/canonical.hh"

#include <array>
#include <type_traits>
#include <vector>

#include "sim/fields.hh"

namespace shotgun
{

namespace
{

using json::Value;

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
    static Value
    object(const S &s)
    {
        TreeVisitor v;
        visitFields(v, s);
        return std::move(v.object_);
    }

    void operator()(std::string_view key, const std::string &s)
    {
        object_.set(std::string(key), Value::string(s));
    }

    void operator()(std::string_view key, double d)
    {
        object_.set(std::string(key), Value::number(d));
    }

    void operator()(std::string_view key, bool b)
    {
        object_.set(std::string(key), Value::boolean(b));
    }

    template <typename T>
    std::enable_if_t<std::is_integral_v<T>>
    operator()(std::string_view key, T n)
    {
        object_.set(std::string(key), Value::number(std::uint64_t{n}));
    }

    template <typename E>
    void
    operator()(std::string_view key, E e, EnumNames<E> names)
    {
        object_.set(std::string(key), Value::string(names.name(e)));
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
        Value array = Value::array();
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
        Value array = Value::array();
        for (std::size_t i = 0; i < N; ++i) {
            TreeVisitor entry;
            entry(label, static_cast<E>(i), names);
            visitFields(entry, items[i]);
            array.push(std::move(entry.object_));
        }
        object_.set(std::string(key), std::move(array));
    }

  private:
    Value object_ = Value::object();
};

template <typename S>
void
stream(json::Writer &w, const S &s)
{
    StreamVisitor(w).object(s);
}

} // namespace

json::Value
encodeSimConfig(const SimConfig &config)
{
    return TreeVisitor::object(config);
}

json::Value
encodeSimResult(const SimResult &result)
{
    return TreeVisitor::object(result);
}

json::Value
encodeStatsDelta(const StatsDelta &delta)
{
    return TreeVisitor::object(delta);
}

json::Value
encodeUarchBreakdown(const obs::UarchBreakdown &u)
{
    return TreeVisitor::object(u);
}

void
writeCanonical(json::Writer &w, const ProgramParams &params)
{
    stream(w, params);
}

void
writeCanonical(json::Writer &w, const WorkloadPreset &preset)
{
    stream(w, preset);
}

void
writeCanonical(json::Writer &w, const SimConfig &config)
{
    stream(w, config);
}

void
writeCanonical(json::Writer &w, const SimResult &result)
{
    stream(w, result);
}

void
writeCanonical(json::Writer &w, const StatsDelta &delta)
{
    stream(w, delta);
}

std::string
fingerprintHex(std::uint64_t hash)
{
    static const char kHex[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (std::size_t i = hex.size(); i-- > 0; hash >>= 4)
        hex[i] = kHex[hash & 0xf];
    return hex;
}

std::string
configFingerprint(const SimConfig &config)
{
    json::Writer hashing;
    writeCanonical(hashing, config);
    return fingerprintHex(hashing.hash());
}

} // namespace shotgun
