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
 *  - One writer: dump() appends the whole tree into a single
 *    reserved string, copying every run of bytes that needs no
 *    escaping in one piece; write() streams that string. No stream
 *    call or temporary string per member.
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
    /** The writer behind dump(): appends this value's text to `out`. */
    void appendTo(std::string &out) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string scalar_; ///< Number token or string content.
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/**
 * FNV-1a 64-bit hash of a byte string; the config-fingerprint
 * primitive (sim/canonical.hh renders it as 16 hex digits).
 */
std::uint64_t fnv1a64(std::string_view bytes);

} // namespace json
} // namespace shotgun

#endif // SHOTGUN_COMMON_JSON_HH
