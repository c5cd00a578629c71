#include "fleet/disk_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "service/codec.hh"

namespace shotgun
{
namespace fleet
{

using json::Value;

namespace
{

/** mkdir -p: create every missing component of `dir`. */
bool
makeDirs(const std::string &dir)
{
    std::string partial;
    std::size_t pos = 0;
    while (pos <= dir.size()) {
        const std::size_t slash = dir.find('/', pos);
        partial = slash == std::string::npos ? dir
                                             : dir.substr(0, slash);
        pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
        if (partial.empty())
            continue;
        if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

/**
 * Fingerprints are 16 lowercase hex digits (sim/canonical.hh);
 * anything else must not be turned into a path component.
 */
bool
safeFingerprint(const std::string &fingerprint)
{
    if (fingerprint.empty() || fingerprint.size() > 64)
        return false;
    for (char c : fingerprint) {
        const bool ok = (c >= '0' && c <= '9') ||
                        (c >= 'a' && c <= 'f');
        if (!ok)
            return false;
    }
    return true;
}

/** One completed (.json) entry found by scanEntries. */
struct EntryInfo
{
    std::string name; ///< File name within the cache directory.
    std::uint64_t bytes = 0;
    std::int64_t mtime = 0; ///< Seconds; ties broken by name.
};

/** Every completed entry with its size and modification time. */
std::vector<EntryInfo>
scanEntries(const std::string &dir)
{
    std::vector<EntryInfo> entries;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return entries;
    const std::string suffix = ".json";
    while (struct dirent *entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.size() <= suffix.size() ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) != 0)
            continue; // Raced with a concurrent trim: skip.
        EntryInfo info;
        info.name = name;
        info.bytes = static_cast<std::uint64_t>(st.st_size);
        info.mtime = static_cast<std::int64_t>(st.st_mtime);
        entries.push_back(std::move(info));
    }
    ::closedir(d);
    return entries;
}

} // namespace

DiskResultCache::DiskResultCache(std::string dir,
                                 std::uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes)
{
    if (dir_.empty())
        throw std::runtime_error("disk cache: empty directory");
    while (dir_.size() > 1 && dir_.back() == '/')
        dir_.pop_back();
    if (!makeDirs(dir_))
        throw std::runtime_error("disk cache: cannot create '" +
                                 dir_ + "': " + strerror(errno));
    // Probe writability now: a daemon should fail to start rather
    // than discover a read-only cache directory store by store.
    const std::string probe = dir_ + "/.probe." +
                              std::to_string(::getpid());
    std::ofstream out(probe, std::ios::trunc);
    if (!out || !(out << "ok\n")) {
        throw std::runtime_error("disk cache: '" + dir_ +
                                 "' is not writable");
    }
    out.close();
    ::unlink(probe.c_str());
}

std::string
DiskResultCache::entryPath(const std::string &fingerprint) const
{
    return dir_ + "/" + fingerprint + ".json";
}

bool
DiskResultCache::load(const std::string &fingerprint,
                      SimResult &out) const
{
    if (!safeFingerprint(fingerprint))
        return false;
    std::ifstream in(entryPath(fingerprint));
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const Value v = Value::parse(text.str());
        // The embedded fingerprint guards against a file copied or
        // renamed across keys: a mismatch is damage, hence a miss.
        if (v.at("fingerprint").asString() != fingerprint)
            return false;
        // Other members are not read: an entry written with a window's
        // raw "delta" beside its result still answers.
        out = service::decodeSimResult(v.at("result"));
        return true;
    } catch (const json::JsonError &) {
        return false;
    }
}

void
DiskResultCache::store(const std::string &fingerprint,
                       const SimResult &value) const
{
    if (!safeFingerprint(fingerprint))
        return;
    Value v = Value::object();
    v.set("fingerprint", Value::string(fingerprint));
    v.set("result", service::encodeSimResult(value));

    // Atomic publish: write a per-process tmp file in the same
    // directory, then rename over the final name. Readers see the
    // old entry, no entry, or the complete new entry -- never a
    // truncated one.
    const std::string path = entryPath(fingerprint);
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out || !(out << v.dump() << '\n')) {
            ::unlink(tmp.c_str());
            return;
        }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return;
    }
    if (maxBytes_ != 0)
        trimToBudget(path);
}

void
DiskResultCache::trimToBudget(const std::string &keep) const
{
    std::vector<EntryInfo> entries = scanEntries(dir_);
    std::uint64_t total = 0;
    for (const EntryInfo &entry : entries)
        total += entry.bytes;
    if (total <= maxBytes_)
        return;
    // Oldest first; name breaks mtime ties so concurrent trimmers
    // converge on the same victims instead of each picking its own.
    std::sort(entries.begin(), entries.end(),
              [](const EntryInfo &a, const EntryInfo &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.name < b.name;
              });
    for (const EntryInfo &entry : entries) {
        if (total <= maxBytes_)
            break;
        const std::string path = dir_ + "/" + entry.name;
        if (path == keep)
            continue; // Never trim the entry just stored.
        if (::unlink(path.c_str()) == 0 || errno == ENOENT)
            total -= entry.bytes;
    }
}

std::size_t
DiskResultCache::entryCount() const
{
    return scanEntries(dir_).size();
}

std::uint64_t
DiskResultCache::totalBytes() const
{
    std::uint64_t total = 0;
    for (const EntryInfo &entry : scanEntries(dir_))
        total += entry.bytes;
    return total;
}

void
DiskResultCache::attachTo(service::Daemon &daemon) const
{
    daemon.setCacheBackend(
        [this](const std::string &key, SimResult &out) {
            return load(key, out);
        },
        [this](const std::string &key, const SimResult &value) {
            store(key, value);
        });
}

} // namespace fleet
} // namespace shotgun
