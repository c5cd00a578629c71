/**
 * @file
 * Strict numeric parsing shared by the CLI layers (bench options, the
 * tools): a count is accepted only if the whole string is decimal
 * digits and fits std::uint64_t -- never a silent fallback,
 * truncation or saturation.
 */

#ifndef SHOTGUN_COMMON_PARSE_HH
#define SHOTGUN_COMMON_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace shotgun
{

/** Strict full-string decimal parse; rejects "", "12x", "-3", "1e6". */
inline bool
parseU64(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno == ERANGE || end == text || *end != '\0')
        return false;
    out = value;
    return true;
}

/**
 * Strict positive byte count with an optional K, M or G suffix
 * (powers of 1024): "600", "64M". Rejects zero and counts that
 * overflow std::uint64_t.
 */
inline bool
parseByteSize(std::string text, std::uint64_t &out)
{
    std::uint64_t multiplier = 1;
    if (!text.empty()) {
        switch (text.back()) {
          case 'K': multiplier = 1ull << 10; break;
          case 'M': multiplier = 1ull << 20; break;
          case 'G': multiplier = 1ull << 30; break;
          default: break;
        }
        if (multiplier != 1)
            text.pop_back();
    }
    std::uint64_t bytes = 0;
    if (!parseU64(text.c_str(), bytes) || bytes == 0 ||
        bytes > UINT64_MAX / multiplier)
        return false;
    out = bytes * multiplier;
    return true;
}

} // namespace shotgun

#endif // SHOTGUN_COMMON_PARSE_HH
