/**
 * @file
 * Minimal strict JSON: an ordered value model, a whole-string parser
 * and a canonical single-line writer. This is the wire layer under
 * the service codec and protocol (service/) and the escape/format
 * helpers behind ResultSink's file emission, so one definition of
 * "what a number looks like" keeps result files, frames and config
 * fingerprints byte-identical across writers.
 *
 * Design points:
 *  - Numbers are stored as their raw token text. Integers of any
 *    width round-trip exactly (no double rounding), and writing a
 *    parsed value re-emits the original bytes, which the canonical
 *    fingerprint relies on.
 *  - Doubles are formatted with std::to_chars (general, 17
 *    significant digits), which is specified to produce the same
 *    bytes as printf's "%.17g", and read back with std::from_chars,
 *    which yields the same correctly rounded value as strtod. A
 *    token that overflows a double is rejected (asDouble throws)
 *    instead of turning into an "inf" no JSON reader accepts;
 *    underflow reads as strtod reads it (0 or a subnormal).
 *  - Object members preserve insertion order (canonical output is
 *    ordered by construction, not by sorting).
 *  - One writer: Writer streams a document straight into a string
 *    or into FNV-1a, with no tree. dump() is that writer walking a
 *    Value, so a streamed document and a dumped tree of the same
 *    content are the same bytes by construction. Every run of bytes
 *    that needs no escaping is copied in one piece.
 *  - The parser walks the text with pointers and copies each run of
 *    plain string bytes in one append; lookups (find/at) take a
 *    string_view, so probing a key allocates nothing.
 *  - Errors throw JsonError instead of calling fatal(): a malformed
 *    frame must never take down a long-running server.
 */

#ifndef SHOTGUN_COMMON_JSON_HH
#define SHOTGUN_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shotgun
{
namespace json
{

/** Parse/access error; the message names the offending construct. */
struct JsonError : std::runtime_error
{
    explicit JsonError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Escape a string's content for embedding in a JSON string literal. */
std::string escape(std::string_view s);

/**
 * Round-trippable double formatting (17 significant digits, %g
 * style) -- the one format every JSON writer in the tree uses.
 */
std::string formatDouble(double v);

class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Member = std::pair<std::string, Value>;

    /** Default-constructed value is null. */
    Value() = default;

    static Value null() { return Value(); }
    static Value boolean(bool b);
    static Value number(std::uint64_t v);
    static Value number(std::int64_t v);
    static Value number(double v);

    /**
     * Number from a raw token. The parser uses this so a parsed
     * document re-serializes with the exact source bytes; `token`
     * must already be a valid JSON number.
     */
    static Value numberFromToken(std::string_view token);

    static Value string(std::string s);
    static Value array();
    static Value object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Strict accessors: throw JsonError on a kind mismatch. */
    bool asBool() const;
    const std::string &asString() const;

    /** Number accessors parse the raw token; asDouble rejects a
     * token that overflows a double, asU64/asI64 reject fractions,
     * exponents and out-of-range values. */
    double asDouble() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;

    /** The raw number token, e.g. "0.25" or "18446744073709551615". */
    const std::string &numberToken() const;

    // ------------------------------------------------------- arrays
    void push(Value v);
    const std::vector<Value> &items() const;
    std::size_t size() const;

    // ------------------------------------------- objects (ordered)
    /** Append a member (no de-duplication; parse rejects dups). */
    void set(std::string key, Value v);
    const std::vector<Member> &members() const;

    /** Lookup by key; nullptr when absent. */
    const Value *find(std::string_view key) const;

    /** Lookup by key; throws JsonError when absent. */
    const Value &at(std::string_view key) const;

    // ------------------------------------------------ serialization
    /** Compact canonical single-line form (no spaces, no newline). */
    std::string dump() const;
    void write(std::ostream &os) const;

    /**
     * Strict whole-string parse: rejects trailing content, duplicate
     * object keys, unescaped control characters, lone surrogates,
     * numbers with leading zeros and nesting deeper than 128 levels.
     */
    static Value parse(std::string_view text);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< Number token or string content.
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/** FNV-1a 64: the offset basis, and one byte folded in. */
constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

constexpr std::uint64_t
fnv1aStep(std::uint64_t hash, unsigned char byte)
{
    return (hash ^ byte) * 0x100000001b3ULL;
}

/**
 * The canonical writer: compact single-line JSON, streamed. The
 * caller opens containers and names keys; the writer places every
 * ',' and ':'. It either appends to a string -- an outgoing frame, a
 * cache key -- or folds the bytes into FNV-1a 64 (hash()) and keeps
 * none of them, which is how a config is fingerprinted without
 * building or storing its encoding.
 *
 * Strings are escaped and doubles formatted ("%.17g") by the same
 * code Value uses, and Value::dump() is this writer walking the tree.
 */
class Writer
{
  public:
    /** Append to `out`; what it already holds is kept. */
    explicit Writer(std::string &out) : out_(&out) {}

    /** Hash instead of storing the bytes; read the result with hash(). */
    Writer() = default;

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Name the next member of the open object; write its value next. */
    Writer &key(std::string_view name);

    void string(std::string_view s);
    void number(std::uint64_t v);
    void number(double v);
    void boolean(bool b);
    void null();

    /** A whole tree, written as dump() writes it. */
    void value(const Value &v);

    /** FNV-1a 64 of everything a hashing writer was given. */
    std::uint64_t hash() const { return hash_; }

  private:
    void open(char bracket);
    void close(char bracket);

    /** The ',' owed before a value or key that follows another. */
    void
    separate()
    {
        if (comma_)
            raw(',');
        comma_ = true;
    }

    void
    raw(const char *data, std::size_t size)
    {
        if (out_ != nullptr) {
            out_->append(data, size);
            return;
        }
        for (std::size_t i = 0; i < size; ++i)
            fold(data[i]);
    }

    void
    raw(char c)
    {
        if (out_ != nullptr)
            out_->push_back(c);
        else
            fold(c);
    }

    void
    fold(char c)
    {
        hash_ = fnv1aStep(hash_, static_cast<unsigned char>(c));
    }

    void rawEscaped(std::string_view s);

    std::string *out_ = nullptr;
    std::uint64_t hash_ = kFnv1aBasis;
    bool comma_ = false; ///< A ',' is owed before the next value or key.
};

/**
 * FNV-1a 64-bit hash of a byte string; the config-fingerprint
 * primitive (sim/canonical.hh renders it as 16 hex digits).
 */
std::uint64_t fnv1a64(std::string_view bytes);

} // namespace json
} // namespace shotgun

#endif // SHOTGUN_COMMON_JSON_HH
