#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace shotgun
{
namespace json
{

namespace
{

/**
 * First allocation of an array's or object's storage. Most canonical
 * objects fit; the rest regrow from here instead of from one, which
 * saves a reallocation and a round of moves per doubling.
 */
constexpr std::size_t kInitialCapacity = 8;

/** True for the bytes a JSON string must escape. */
bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/**
 * Hand `s` to `emit(data, size)` escaped: runs of plain bytes go out
 * in one piece, so a string that needs no escaping is a single call.
 * The one escaping routine: escape(), dump() and Writer all use it.
 */
template <typename Emit>
void
emitEscaped(std::string_view s, Emit &&emit)
{
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (!needsEscape(c))
            continue;
        emit(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': emit("\\\"", 2); break;
          case '\\': emit("\\\\", 2); break;
          case '\n': emit("\\n", 2); break;
          case '\t': emit("\\t", 2); break;
          default: {
            static const char kHex[] = "0123456789abcdef";
            const char u[6] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                               kHex[c & 0xf]};
            emit(u, sizeof(u));
          }
        }
    }
    emit(s.data() + run, s.size() - run);
}

/** "%.17g" of `v` into [first, last); returns the end of the text. */
char *
formatDoubleTo(char *first, char *last, double v)
{
    // Same bytes as "%.17g": to_chars with an explicit precision is
    // specified as printf's conversion in the C locale.
    return std::to_chars(first, last, v, std::chars_format::general, 17)
        .ptr;
}

template <typename T>
Value
integerValue(T v)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return Value::numberFromToken(
        std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
}

/**
 * Whole-token integer read: the token must be exactly an in-range
 * integer of type T (no sign for unsigned, no fraction or exponent).
 */
template <typename T>
T
parseInteger(const std::string &token, const char *wanted)
{
    T v = 0;
    const char *first = token.data();
    const char *last = first + token.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec == std::errc::result_out_of_range && ptr == last)
        throw JsonError("integer out of range: '" + token + "'");
    if (ec != std::errc() || ptr != last)
        throw JsonError(std::string("expected ") + wanted + ", got '" +
                        token + "'");
    return v;
}

} // namespace

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    emitEscaped(s, [&out](const char *data, std::size_t size) {
        out.append(data, size);
    });
    return out;
}

std::string
formatDouble(double v)
{
    char buf[32];
    return std::string(buf, formatDoubleTo(buf, buf + sizeof(buf), v));
}

Value
Value::boolean(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::number(std::uint64_t value)
{
    return integerValue(value);
}

Value
Value::number(std::int64_t value)
{
    return integerValue(value);
}

Value
Value::number(double value)
{
    char buf[32];
    const char *end = formatDoubleTo(buf, buf + sizeof(buf), value);
    return numberFromToken(
        std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Value
Value::numberFromToken(std::string_view token)
{
    Value v;
    v.kind_ = Kind::Number;
    v.scalar_.assign(token.data(), token.size());
    return v;
}

Value
Value::string(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.scalar_ = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v.kind_ = Kind::Array;
    return v;
}

Value
Value::object()
{
    Value v;
    v.kind_ = Kind::Object;
    return v;
}

namespace
{

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::Null: return "null";
      case Value::Kind::Bool: return "bool";
      case Value::Kind::Number: return "number";
      case Value::Kind::String: return "string";
      case Value::Kind::Array: return "array";
      case Value::Kind::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
wrongKind(const char *wanted, Value::Kind got)
{
    throw JsonError(std::string("expected ") + wanted + ", got " +
                    kindName(got));
}

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        wrongKind("bool", kind_);
    return bool_;
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        wrongKind("string", kind_);
    return scalar_;
}

const std::string &
Value::numberToken() const
{
    if (kind_ != Kind::Number)
        wrongKind("number", kind_);
    return scalar_;
}

double
Value::asDouble() const
{
    if (kind_ != Kind::Number)
        wrongKind("number", kind_);
    double v = 0.0;
    const char *first = scalar_.data();
    const char *last = first + scalar_.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ptr != last ||
        (ec != std::errc() && ec != std::errc::result_out_of_range))
        throw JsonError("malformed number token '" + scalar_ + "'");
    // from_chars leaves `v` unset when the token is out of range
    // either way; strtod tells underflow (0 or a subnormal, kept)
    // from overflow (+-inf, refused).
    if (ec == std::errc::result_out_of_range)
        v = std::strtod(scalar_.c_str(), nullptr);
    if (!std::isfinite(v))
        throw JsonError("number out of range: '" + scalar_ + "'");
    return v;
}

std::uint64_t
Value::asU64() const
{
    if (kind_ != Kind::Number)
        wrongKind("number", kind_);
    return parseInteger<std::uint64_t>(scalar_,
                                       "a non-negative integer");
}

std::int64_t
Value::asI64() const
{
    if (kind_ != Kind::Number)
        wrongKind("number", kind_);
    return parseInteger<std::int64_t>(scalar_, "an integer");
}

void
Value::push(Value v)
{
    if (kind_ != Kind::Array)
        wrongKind("array", kind_);
    if (items_.empty())
        items_.reserve(kInitialCapacity);
    items_.push_back(std::move(v));
}

const std::vector<Value> &
Value::items() const
{
    if (kind_ != Kind::Array)
        wrongKind("array", kind_);
    return items_;
}

std::size_t
Value::size() const
{
    if (kind_ == Kind::Array)
        return items_.size();
    if (kind_ == Kind::Object)
        return members_.size();
    wrongKind("array or object", kind_);
}

void
Value::set(std::string key, Value v)
{
    if (kind_ != Kind::Object)
        wrongKind("object", kind_);
    if (members_.empty())
        members_.reserve(kInitialCapacity);
    members_.emplace_back(std::move(key), std::move(v));
}

const std::vector<Value::Member> &
Value::members() const
{
    if (kind_ != Kind::Object)
        wrongKind("object", kind_);
    return members_;
}

const Value *
Value::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        wrongKind("object", kind_);
    for (const auto &member : members_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    const Value *v = find(key);
    if (v == nullptr)
        throw JsonError("missing key \"" + std::string(key) + "\"");
    return *v;
}

std::string
Value::dump() const
{
    // Small frames fit the first allocation; a canonical config
    // (~2 KiB) regrows it geometrically.
    std::string out;
    out.reserve(512);
    Writer(out).value(*this);
    return out;
}

void
Value::write(std::ostream &os) const
{
    const std::string text = dump();
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// -------------------------------------------------------------- writer

void
Writer::open(char bracket)
{
    separate();
    raw(bracket);
    comma_ = false;
}

void
Writer::close(char bracket)
{
    raw(bracket);
    comma_ = true;
}

void
Writer::rawEscaped(std::string_view s)
{
    raw('"');
    emitEscaped(s, [this](const char *data, std::size_t size) {
        raw(data, size);
    });
    raw('"');
}

Writer &
Writer::key(std::string_view name)
{
    separate();
    rawEscaped(name);
    raw(':');
    comma_ = false;
    return *this;
}

void
Writer::string(std::string_view s)
{
    separate();
    rawEscaped(s);
}

void
Writer::number(std::uint64_t v)
{
    separate();
    char buf[24];
    raw(buf, static_cast<std::size_t>(
                 std::to_chars(buf, buf + sizeof(buf), v).ptr - buf));
}

void
Writer::number(double v)
{
    separate();
    char buf[32];
    raw(buf, static_cast<std::size_t>(
                 formatDoubleTo(buf, buf + sizeof(buf), v) - buf));
}

void
Writer::boolean(bool b)
{
    separate();
    if (b)
        raw("true", 4);
    else
        raw("false", 5);
}

void
Writer::null()
{
    separate();
    raw("null", 4);
}

void
Writer::value(const Value &v)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        null();
        break;
      case Value::Kind::Bool:
        boolean(v.asBool());
        break;
      case Value::Kind::Number: {
        separate();
        const std::string &token = v.numberToken();
        raw(token.data(), token.size());
        break;
      }
      case Value::Kind::String:
        string(v.asString());
        break;
      case Value::Kind::Array:
        beginArray();
        for (const Value &item : v.items())
            value(item);
        endArray();
        break;
      case Value::Kind::Object:
        beginObject();
        for (const Value::Member &member : v.members()) {
            key(member.first);
            value(member.second);
        }
        endObject();
        break;
    }
}

// -------------------------------------------------------------- parser

namespace
{

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

class Parser
{
  public:
    explicit Parser(std::string_view text)
        : begin_(text.data()), pos_(text.data()),
          end_(text.data() + text.size())
    {
    }

    Value parse()
    {
        skipWs();
        Value v = parseValue(0);
        skipWs();
        if (pos_ != end_)
            fail("trailing content after JSON value");
        return v;
    }

  private:
    static constexpr int kMaxDepth = 128;

    [[noreturn]] void fail(const std::string &message) const
    {
        throw JsonError("JSON parse error at offset " +
                        std::to_string(pos_ - begin_) + ": " + message);
    }

    char peek() const
    {
        if (pos_ == end_)
            fail("unexpected end of input");
        return *pos_;
    }

    char take()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    void skipWs()
    {
        while (pos_ != end_ && (*pos_ == ' ' || *pos_ == '\t' ||
                                *pos_ == '\n' || *pos_ == '\r'))
            ++pos_;
    }

    std::size_t skipDigits()
    {
        const char *start = pos_;
        while (pos_ != end_ && isDigit(*pos_))
            ++pos_;
        return static_cast<std::size_t>(pos_ - start);
    }

    void expect(std::string_view literal)
    {
        if (static_cast<std::size_t>(end_ - pos_) < literal.size() ||
            std::memcmp(pos_, literal.data(), literal.size()) != 0)
            fail("expected '" + std::string(literal) + "'");
        pos_ += literal.size();
    }

    Value parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        switch (peek()) {
          case 'n':
            expect("null");
            return Value::null();
          case 't':
            expect("true");
            return Value::boolean(true);
          case 'f':
            expect("false");
            return Value::boolean(false);
          case '"':
            return Value::string(parseString());
          case '[':
            return parseArray(depth);
          case '{':
            return parseObject(depth);
          default:
            return parseNumber();
        }
    }

    Value parseArray(int depth)
    {
        ++pos_; // '['
        Value v = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            v.push(parseValue(depth + 1));
            skipWs();
            const char c = take();
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    Value parseObject(int depth)
    {
        ++pos_; // '{'
        Value v = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected a string object key");
            std::string key = parseString();
            if (v.find(key) != nullptr)
                fail("duplicate object key \"" + key + "\"");
            skipWs();
            if (take() != ':')
                fail("expected ':' after object key");
            skipWs();
            v.set(std::move(key), parseValue(depth + 1));
            skipWs();
            const char c = take();
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    unsigned parseHex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = take();
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
        }
        return value;
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::string parseString()
    {
        ++pos_; // '"'
        std::string out;
        while (true) {
            // Copy the run up to the next quote, backslash or control
            // character in one append.
            const char *run = pos_;
            while (pos_ != end_ && !needsEscape(*pos_))
                ++pos_;
            out.append(run, static_cast<std::size_t>(pos_ - run));
            const char c = take();
            if (c == '"')
                return out;
            if (c != '\\')
                fail("unescaped control character in string");
            const char esc = take();
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // Surrogate pair: the low half must follow.
                    if (take() != '\\' || take() != 'u')
                        fail("unpaired UTF-16 surrogate");
                    const unsigned low = parseHex4();
                    if (low < 0xdc00 || low > 0xdfff)
                        fail("invalid UTF-16 surrogate pair");
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    fail("unpaired UTF-16 surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape sequence");
            }
        }
    }

    Value parseNumber()
    {
        const char *start = pos_;
        if (peek() == '-')
            ++pos_;
        if (pos_ == end_ || !isDigit(*pos_))
            fail("malformed number");
        // Leading zero may only be followed by '.', 'e' or the end.
        if (*pos_++ == '0' && pos_ != end_ && isDigit(*pos_))
            fail("number with leading zero");
        skipDigits();
        if (pos_ != end_ && *pos_ == '.') {
            ++pos_;
            if (skipDigits() == 0)
                fail("malformed number fraction");
        }
        if (pos_ != end_ && (*pos_ == 'e' || *pos_ == 'E')) {
            ++pos_;
            if (pos_ != end_ && (*pos_ == '+' || *pos_ == '-'))
                ++pos_;
            if (skipDigits() == 0)
                fail("malformed number exponent");
        }
        // Keep the exact token so writing re-emits the same bytes.
        return Value::numberFromToken(
            std::string_view(start, static_cast<std::size_t>(pos_ - start)));
    }

    const char *const begin_;
    const char *pos_;
    const char *const end_;
};

} // namespace

Value
Value::parse(std::string_view text)
{
    return Parser(text).parse();
}

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = kFnv1aBasis;
    for (unsigned char c : bytes)
        hash = fnv1aStep(hash, c);
    return hash;
}

} // namespace json
} // namespace shotgun
