/**
 * @file
 * The vocabulary of the wire field lists. Every struct that crosses a
 * process or file boundary -- configs, results, window deltas, probe
 * payloads, protocol frames and the values they carry -- has exactly
 * one
 *
 *     template <typename V> void fields(V &v, S &s);
 *
 * beside its peers in trace/preset_fields.hh, sim/fields.hh or
 * service/protocol.hh. It names each member once, with its wire key,
 * in canonical order, and every encoding of S is a visitor run over
 * that list:
 *
 *  - the streaming canonical writer and the json::Value encoder
 *    (sim/canonical.hh) -- the same bytes, by construction;
 *  - the strict decoder (service/codec.hh), which also enforces the
 *    struct's brokenRule() so a config the simulator cannot run is a
 *    rejected frame, never a crashed or wedged daemon;
 *  - the trace-header archive (trace/trace_io.cc), a binary layout.
 *
 * A visitor implements these calls:
 *
 *  - `v(key, m)`: a required member -- an integer, a double, a bool,
 *    a string, a struct with its own fields(), or a std::vector of
 *    such structs;
 *  - `v(key, m, names)`: a required enum member, spelled on the wire
 *    by `names` (an EnumNames);
 *  - `v.binding(key, m)`: a required member that binds a config to
 *    the host it runs on (a trace file's path): part of every JSON
 *    form, never part of a trace file;
 *  - `v.optional(key, m, present)`: the one rule for optional
 *    members, of any kind above. A writer emits the member only when
 *    `present` holds; a reader fills it when its key is there and
 *    otherwise leaves its default. `present` is either a test
 *    (`!m.empty()`, or `true` for a member always written that older
 *    peers may omit) or the struct's own presence flag (`hasTiming`),
 *    which a reader sets to whether the key was there;
 *  - `v.table(key, array, label, names)`: a fixed array of structs
 *    indexed by an enum; element i is an object whose first member,
 *    `label`, is names(i).
 *
 * A list may branch on a member it has already visited (a failed
 * work result carries only its message). The lists take the struct by
 * non-const reference so one list serves readers and writers; writers
 * go through visitFields(), which never modifies what it visits.
 * shotgun-lint's codec-coverage check fails the build when a struct
 * member is missing from its list.
 */

#ifndef SHOTGUN_COMMON_WIRE_HH
#define SHOTGUN_COMMON_WIRE_HH

#include <cstddef>

namespace shotgun
{

/** How an enum member is spelled on the wire. */
template <typename E>
struct EnumNames
{
    const char *(*name)(E); ///< The wire name of a value.
    std::size_t count;      ///< Values 0 .. count-1 exist.
};

/** A struct without rules: every value of it can run. */
template <typename S>
const char *
brokenRule(const S &)
{
    return nullptr;
}

/** Run `s`'s field list through a visitor that only reads members. */
template <typename V, typename S>
void
visitFields(V &v, const S &s)
{
    fields(v, const_cast<S &>(s));
}

} // namespace shotgun

#endif // SHOTGUN_COMMON_WIRE_HH
