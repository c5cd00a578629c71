/**
 * @file
 * Tests for the synthetic program model, the trace generator and
 * trace serialization: structural invariants of the program image,
 * stream invariants of the dynamic trace, determinism, and the
 * statistical properties the paper's workloads rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"
#include "trace/decoded_trace.hh"
#include "trace/generator.hh"
#include "trace/presets.hh"
#include "trace/program.hh"
#include "trace/trace_io.hh"

namespace shotgun
{
namespace
{

ProgramParams
smallParams(std::uint64_t seed = 7)
{
    ProgramParams p;
    p.name = "test";
    p.numFuncs = 200;
    p.numOsFuncs = 40;
    p.numTrapHandlers = 8;
    p.numTopLevel = 8;
    p.seed = seed;
    return p;
}

/** Step `gen` through its next `count` basic blocks. */
void
advance(TraceGenerator &gen, std::uint64_t count)
{
    BBRecord scratch;
    for (std::uint64_t i = 0; i < count; ++i)
        gen.next(scratch);
}

TEST(ProgramTest, BuildsRequestedFunctionCounts)
{
    const auto params = smallParams();
    Program prog(params);
    EXPECT_EQ(prog.numFunctions(),
              params.numTopLevel + params.numFuncs + params.numOsFuncs);
    EXPECT_EQ(prog.topLevelFuncs().size(), params.numTopLevel);
    EXPECT_EQ(prog.trapHandlers().size(), params.numTrapHandlers);
    EXPECT_GT(prog.codeBytes(), 0u);
    EXPECT_GT(prog.numStaticBranches(), 0u);
}

TEST(ProgramTest, FunctionsDoNotOverlap)
{
    Program prog(smallParams());
    std::vector<std::pair<Addr, Addr>> spans;
    for (const auto &fn : prog.functions())
        spans.emplace_back(fn.entry, fn.entry + fn.sizeBytes);
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].second, spans[i].first);
}

TEST(ProgramTest, BBsAreContiguousWithinFunction)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        Addr expect = fn.entry;
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            EXPECT_EQ(bb.startAddr(), expect);
            expect += bb.numInstrs * kInstrBytes;
        }
        EXPECT_EQ(expect, fn.entry + fn.sizeBytes);
    }
}

TEST(ProgramTest, LastBBIsReturn)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        const StaticBB &last = prog.bb(fn.firstBB + fn.numBBs - 1);
        if (fn.isHandler)
            EXPECT_EQ(last.type, BranchType::TrapReturn);
        else
            EXPECT_EQ(last.type, BranchType::Return);
    }
}

TEST(ProgramTest, BranchTargetsStayInsideFunction)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            if (bb.type == BranchType::Conditional ||
                bb.type == BranchType::Jump) {
                EXPECT_GE(bb.targetBB, fn.firstBB);
                EXPECT_LT(bb.targetBB, fn.firstBB + fn.numBBs);
                EXPECT_GE(bb.targetAddr(), fn.entry);
                EXPECT_LT(bb.targetAddr(), fn.entry + fn.sizeBytes);
            }
        }
    }
}

TEST(ProgramTest, CallGraphIsAcyclicByLevel)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            if (!isCallType(bb.type))
                continue;
            const std::uint32_t callee_idx =
                prog.functionIndexAt(bb.targetAddr());
            ASSERT_NE(callee_idx, UINT32_MAX);
            const Function &callee = prog.function(callee_idx);
            EXPECT_EQ(bb.targetAddr(), callee.entry);
            EXPECT_EQ(bb.targetBB, callee.firstBB);
            if (bb.type == BranchType::Call) {
                EXPECT_LT(callee.level, fn.level)
                    << "call must target a strictly lower level";
                EXPECT_EQ(callee.isOs, fn.isOs)
                    << "plain calls stay within app or OS code";
            } else {
                EXPECT_TRUE(callee.isHandler);
            }
        }
    }
}

TEST(ProgramTest, OsAndAppInDisjointAddressRegions)
{
    Program prog(smallParams());
    for (const auto &fn : prog.functions()) {
        if (fn.isOs)
            EXPECT_GE(fn.entry, kOsCodeBase);
        else
            EXPECT_LT(fn.entry + fn.sizeBytes, kOsCodeBase);
    }
}

TEST(ProgramTest, AddressLookupsRoundTrip)
{
    Program prog(smallParams());
    for (std::uint32_t f = 0; f < prog.numFunctions(); f += 7) {
        const Function &fn = prog.function(f);
        EXPECT_EQ(prog.functionIndexAt(fn.entry), f);
        EXPECT_EQ(prog.functionIndexAt(fn.entry + fn.sizeBytes - 1), f);
        const StaticBB &bb0 = prog.bb(fn.firstBB);
        EXPECT_EQ(prog.bbIndexAt(bb0.startAddr()), fn.firstBB);
    }
    EXPECT_EQ(prog.functionIndexAt(0x1000), UINT32_MAX);
    EXPECT_EQ(prog.bbIndexAt(0x1000), UINT32_MAX);
}

TEST(ProgramTest, BlockBranchesOracleMatchesBBs)
{
    Program prog(smallParams());
    // Exhaustively check a sample of functions: every BB must be
    // reported by the oracle for its containing block.
    for (std::uint32_t f = 0; f < prog.numFunctions(); f += 11) {
        const Function &fn = prog.function(f);
        for (std::uint32_t i = 0; i < fn.numBBs; ++i) {
            const StaticBB &bb = prog.bb(fn.firstBB + i);
            bool present = false;
            for (const std::uint32_t idx :
                 prog.blockBBs(blockNumber(bb.startAddr()))) {
                const StaticBBInfo info = prog.staticInfo(idx);
                if (info.startAddr == bb.startAddr()) {
                    present = true;
                    EXPECT_EQ(info.numInstrs, bb.numInstrs);
                    EXPECT_EQ(info.type, bb.type);
                    EXPECT_EQ(info.target, bb.targetAddr());
                }
            }
            EXPECT_TRUE(present);
        }
    }
}

TEST(ProgramTest, BlockIndexMatchesBruteForceScan)
{
    // The dense per-block index against a direct scan of every basic
    // block, over every cache block of both code areas plus a margin
    // outside each, for all six presets. Blocks in which no basic
    // block starts -- outside the image, and any inside it -- must
    // come back empty.
    for (const WorkloadPreset &preset : allPresets()) {
        const Program &prog = programFor(preset);
        std::map<Addr, std::vector<std::uint32_t>> by_block;
        Addr app_end = 0, os_end = 0;
        for (std::uint32_t i = 0; i < prog.numBBs(); ++i) {
            const StaticBB &bb = prog.bb(i);
            by_block[blockNumber(bb.startAddr())].push_back(i);
            Addr &end = bb.startAddr() >= kOsCodeBase ? os_end : app_end;
            end = std::max(end, blockNumber(bb.startAddr()));
        }
        for (auto &[block, bbs] : by_block) {
            std::sort(bbs.begin(), bbs.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return prog.bb(a).startAddr() <
                                 prog.bb(b).startAddr();
                      });
        }

        std::size_t empty_blocks = 0;
        for (const auto &[first, last] :
             {std::pair{blockNumber(kAppCodeBase), app_end},
              std::pair{blockNumber(kOsCodeBase), os_end}}) {
            for (Addr block = first - 3; block <= last + 3; ++block) {
                const Program::BBSpan span = prog.blockBBs(block);
                const std::vector<std::uint32_t> got(span.begin(),
                                                     span.end());
                const auto it = by_block.find(block);
                if (it == by_block.end()) {
                    ASSERT_TRUE(got.empty())
                        << preset.name << " block " << block;
                    ++empty_blocks;
                    continue;
                }
                ASSERT_EQ(got, it->second)
                    << preset.name << " block " << block;
                for (const std::uint32_t idx : got) {
                    const StaticBB &bb = prog.bb(idx);
                    const StaticBBInfo info = prog.staticInfo(idx);
                    EXPECT_EQ(info.startAddr, bb.startAddr());
                    EXPECT_EQ(info.target, bb.targetAddr());
                    EXPECT_EQ(prog.bbIndexAt(bb.startAddr()), idx);
                }
            }
        }
        EXPECT_GE(empty_blocks, 12u) << preset.name;
        EXPECT_EQ(prog.bbIndexAt(kOsCodeBase - kInstrBytes), UINT32_MAX);
    }
}

TEST(ProgramTest, StaticBBAtExactMatchOnly)
{
    Program prog(smallParams());
    const Function &fn = prog.function(0);
    const StaticBB &bb = prog.bb(fn.firstBB);
    StaticBBInfo info;
    EXPECT_TRUE(prog.staticBBAt(bb.startAddr(), info));
    EXPECT_EQ(info.startAddr, bb.startAddr());
    if (bb.numInstrs > 1) {
        EXPECT_FALSE(prog.staticBBAt(bb.startAddr() + 4, info));
    }
}

TEST(ProgramTest, DeterministicForSameSeed)
{
    Program a(smallParams(99)), b(smallParams(99));
    ASSERT_EQ(a.numBBs(), b.numBBs());
    for (std::uint32_t i = 0; i < a.numBBs(); i += 13) {
        EXPECT_EQ(a.bb(i).startAddr(), b.bb(i).startAddr());
        EXPECT_EQ(a.bb(i).type, b.bb(i).type);
        EXPECT_EQ(a.bb(i).targetAddr(), b.bb(i).targetAddr());
    }
}

TEST(ProgramTest, DifferentSeedsProduceDifferentLayouts)
{
    Program a(smallParams(1)), b(smallParams(2));
    bool differs = a.numBBs() != b.numBBs();
    for (std::uint32_t i = 0; !differs && i < a.numBBs(); ++i)
        differs = a.bb(i).startAddr() != b.bb(i).startAddr() ||
                  a.bb(i).type != b.bb(i).type;
    EXPECT_TRUE(differs);
}

/** FNV-1a over little-endian u64 words, or over raw bytes. */
struct WordDigest
{
    std::uint64_t value = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t word)
    {
        for (unsigned i = 0; i < 8; ++i) {
            value ^= (word >> (8 * i)) & 0xff;
            value *= 0x100000001b3ULL;
        }
    }

    void
    addBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            value ^= bytes[i];
            value *= 0x100000001b3ULL;
        }
    }
};

TEST(ProgramTest, PackedImageIsLossless)
{
    // Digests of every static basic block's decoded view and of every
    // function row of the six presets, recorded by the same loop over
    // the fields of the unpacked 40-byte record the packed one
    // replaced: packing the image changed no value. Each block's
    // sticky flag must equal the generator's per-draw predicate.
    struct Expected
    {
        std::uint32_t bbs;
        std::uint64_t bbDigest;
        std::uint64_t funcDigest;
    };
    const std::map<std::string, Expected> expected = {
        {"nutch", {20925, 0x8f6df26779a39d91ULL, 0x2310faa0a91bd431ULL}},
        {"streaming", {89738, 0xc18780ef7d8b78deULL, 0x0b6b1548b5ba37cbULL}},
        {"apache", {135354, 0x1327749efe9a7e6aULL, 0xc195f799ad62b1f5ULL}},
        {"zeus", {93735, 0x88ab063d9be0c8fdULL, 0x836bc3b75277f27aULL}},
        {"oracle", {370349, 0xd48c757f483a6adbULL, 0x51e4e49d1c0cdecfULL}},
        {"db2", {286842, 0xfe277b0a25eab867ULL, 0xd1a9a16c405080edULL}},
    };
    for (const WorkloadPreset &preset : allPresets()) {
        const Program &prog = programFor(preset);
        const double sticky_frac = prog.params().stickyFrac;
        WordDigest bbs;
        std::uint32_t sticky_mismatches = 0;
        for (std::uint32_t i = 0; i < prog.numBBs(); ++i) {
            const StaticBB &bb = prog.bb(i);
            const float prob = bb.takenProb();
            std::uint32_t prob_bits;
            std::memcpy(&prob_bits, &prob, sizeof(prob_bits));
            for (const std::uint64_t word :
                 {bb.startAddr(), bb.targetAddr(),
                  std::uint64_t{bb.targetBB}, std::uint64_t{bb.numInstrs},
                  static_cast<std::uint64_t>(bb.type),
                  static_cast<std::uint64_t>(bb.bias),
                  std::uint64_t{prob_bits},
                  std::uint64_t{bb.loopTrip()},
                  std::uint64_t{bb.pattern()},
                  std::uint64_t{bb.patternLen()}}) {
                bbs.add(word);
            }
            const bool sticky =
                sticky_frac > 0.0 &&
                (mix64(i) & 0xffff) <
                    static_cast<std::uint64_t>(sticky_frac * 65536.0);
            sticky_mismatches += bb.sticky() != sticky;
        }
        WordDigest funcs;
        for (const Function &fn : prog.functions()) {
            for (const std::uint64_t word :
                 {fn.entry, std::uint64_t{fn.firstBB},
                  std::uint64_t{fn.numBBs}, std::uint64_t{fn.sizeBytes},
                  std::uint64_t{fn.level}, std::uint64_t{fn.isOs},
                  std::uint64_t{fn.isHandler},
                  std::uint64_t{fn.isTopLevel}}) {
                funcs.add(word);
            }
        }
        const Expected &want = expected.at(preset.name);
        EXPECT_EQ(prog.numBBs(), want.bbs) << preset.name;
        EXPECT_EQ(bbs.value, want.bbDigest) << preset.name;
        EXPECT_EQ(funcs.value, want.funcDigest) << preset.name;
        EXPECT_EQ(sticky_mismatches, 0u) << preset.name;
    }
}

/**
 * Digest of everything a program image exposes: every StaticBB's 20
 * bytes, the function table, the trap-handler and top-level lists,
 * codeBytes(), numStaticBranches(), the function found at each entry,
 * the predecoder oracle's span of every cache block of both code
 * areas (one block past each end included) and footprintBytes().
 */
std::uint64_t
imageDigest(const Program &prog)
{
    WordDigest digest;
    for (std::uint32_t i = 0; i < prog.numBBs(); ++i)
        digest.addBytes(&prog.bb(i), sizeof(StaticBB));
    Addr app_end = kAppCodeBase, os_end = kOsCodeBase;
    for (const Function &fn : prog.functions()) {
        for (const std::uint64_t word :
             {fn.entry, std::uint64_t{fn.firstBB}, std::uint64_t{fn.numBBs},
              std::uint64_t{fn.sizeBytes}, std::uint64_t{fn.level},
              std::uint64_t{fn.isOs}, std::uint64_t{fn.isHandler},
              std::uint64_t{fn.isTopLevel}}) {
            digest.add(word);
        }
        Addr &end = fn.isOs ? os_end : app_end;
        end = std::max<Addr>(end, fn.entry + fn.sizeBytes);
    }
    for (const std::uint32_t f : prog.trapHandlers())
        digest.add(f);
    for (const std::uint32_t f : prog.topLevelFuncs())
        digest.add(f);
    digest.add(prog.codeBytes());
    digest.add(prog.numStaticBranches());
    for (const Function &fn : prog.functions())
        digest.add(prog.functionIndexAt(fn.entry));
    for (const auto &[base, end] :
         {std::pair{kAppCodeBase, app_end}, std::pair{kOsCodeBase, os_end}}) {
        for (Addr block = blockNumber(base) - 1;
             block <= blockNumber(end) + 1; ++block) {
            const Program::BBSpan span = prog.blockBBs(block);
            digest.add(static_cast<std::uint64_t>(span.end() - span.begin()));
            for (const std::uint32_t idx : span)
                digest.add(idx);
        }
    }
    digest.add(prog.footprintBytes());
    return digest.value;
}

TEST(ProgramTest, PresetImagesArePinned)
{
    // Recorded from the image builder before its integer draws, guided
    // Zipf search, in-place trim and one-walk finalize: a speed change
    // to the build must leave every image bit for bit. Only a change
    // that deliberately moves the images (a preset recalibration) may
    // re-record them, from the table printed on a mismatch, and its
    // description says why.
    const std::map<std::string, std::uint64_t> pinned = {
        {"nutch", 0xb8d1fe82a37c1960ULL},
        {"streaming", 0x9075ddd52bcac9d4ULL},
        {"apache", 0xbfcbdf79f7b78925ULL},
        {"zeus", 0x077c751dacf71883ULL},
        {"oracle", 0x71148c7545a347ecULL},
        {"db2", 0xa3cea23966c53977ULL},
    };
    std::string table;
    bool mismatch = false;
    for (const WorkloadPreset &preset : allPresets()) {
        const std::uint64_t got = imageDigest(programFor(preset));
        char row[64];
        std::snprintf(row, sizeof(row), "        {\"%s\", 0x%016llxULL},\n",
                      preset.name.c_str(),
                      static_cast<unsigned long long>(got));
        table += row;
        EXPECT_EQ(got, pinned.at(preset.name)) << preset.name;
        mismatch |= got != pinned.at(preset.name);
    }
    if (mismatch)
        std::printf("new image digests:\n%s", table.c_str());
}

// ---------------------------------------------------------------------
// Generator tests
// ---------------------------------------------------------------------

TEST(GeneratorTest, StreamInvariantHolds)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 1);
    BBRecord prev, cur;
    ASSERT_TRUE(gen.next(prev));
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(gen.next(cur));
        ASSERT_EQ(cur.startAddr, prev.nextAddr())
            << "at record " << i << " type "
            << branchTypeName(prev.type);
        prev = cur;
    }
}

TEST(GeneratorTest, Deterministic)
{
    Program prog(smallParams());
    TraceGenerator a(prog, 5), b(prog, 5);
    BBRecord ra, rb;
    for (int i = 0; i < 50000; ++i) {
        a.next(ra);
        b.next(rb);
        ASSERT_TRUE(ra == rb);
    }
}

TEST(GeneratorTest, RecordsMatchStaticImage)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 3);
    BBRecord rec;
    StaticBBInfo info;
    for (int i = 0; i < 100000; ++i) {
        gen.next(rec);
        ASSERT_TRUE(prog.staticBBAt(rec.startAddr, info));
        ASSERT_EQ(info.numInstrs, rec.numInstrs);
        ASSERT_EQ(info.type, rec.type);
        if (rec.type == BranchType::Conditional ||
            rec.type == BranchType::Jump) {
            ASSERT_EQ(info.target, rec.target);
        }
    }
}

TEST(GeneratorTest, CallsAndReturnsBalance)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 11);
    advance(gen, 500000);
    const auto &s = gen.stats();
    EXPECT_GT(s.calls, 0u);
    EXPECT_GT(s.returns, 0u);
    // Returns = calls + traps + one per completed request (top-level
    // returns), so the two sides must be within requests of each
    // other.
    const auto lhs = s.calls + s.traps + s.requests;
    const auto rhs = s.returns;
    const auto diff = lhs > rhs ? lhs - rhs : rhs - lhs;
    EXPECT_LE(diff, gen.stackDepth() + 1);
}

TEST(GeneratorTest, StackStaysBounded)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 13);
    BBRecord rec;
    std::size_t max_depth = 0;
    for (int i = 0; i < 300000; ++i) {
        gen.next(rec);
        max_depth = std::max(max_depth, gen.stackDepth());
    }
    const auto &p = prog.params();
    EXPECT_LE(max_depth, p.maxCallDepth + p.maxOsCallDepth + 2);
}

TEST(GeneratorTest, LoopTripCountsRespected)
{
    // Find a loop branch and check its taken-run length matches the
    // static trip count.
    Program prog(smallParams());
    std::uint32_t loop_bb = UINT32_MAX;
    for (std::uint32_t i = 0; i < prog.numBBs(); ++i) {
        if (prog.bb(i).bias == BiasClass::Loop &&
            prog.bb(i).type == BranchType::Conditional) {
            loop_bb = i;
            break;
        }
    }
    ASSERT_NE(loop_bb, UINT32_MAX) << "no loop generated";
    const StaticBB &loop = prog.bb(loop_bb);

    TraceGenerator gen(prog, 17);
    BBRecord rec;
    int run = 0;
    std::vector<int> runs;
    for (int i = 0; i < 2000000 && runs.size() < 5; ++i) {
        gen.next(rec);
        if (rec.startAddr != loop.startAddr())
            continue;
        if (rec.taken) {
            ++run;
        } else {
            runs.push_back(run);
            run = 0;
        }
    }
    for (int r : runs)
        EXPECT_EQ(r, static_cast<int>(loop.loopTrip()) - 1);
}

TEST(GeneratorTest, BranchDensityIsServerLike)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 19);
    advance(gen, 1000000);
    const auto &s = gen.stats();
    const double branches_per_ki =
        1000.0 * static_cast<double>(s.branches) /
        static_cast<double>(s.instructions);
    // Server code has roughly one branch per 5-8 instructions.
    EXPECT_GT(branches_per_ki, 90.0);
    EXPECT_LT(branches_per_ki, 260.0);
}

TEST(GeneratorTest, UnconditionalShareIsMinority)
{
    // Sec 3.1: conditional branches dominate the dynamic branch
    // stream; the unconditional working set is the small part.
    Program prog(smallParams());
    TraceGenerator gen(prog, 23);
    advance(gen, 1000000);
    const auto &s = gen.stats();
    const double cond_frac = static_cast<double>(s.conditionals) /
                             static_cast<double>(s.branches);
    EXPECT_GT(cond_frac, 0.5);
}

TEST(GeneratorTest, VisitsManyFunctions)
{
    Program prog(smallParams());
    TraceGenerator gen(prog, 29);
    BBRecord rec;
    std::set<std::uint32_t> funcs;
    for (int i = 0; i < 200000; ++i) {
        gen.next(rec);
        if (isCallType(rec.type))
            funcs.insert(prog.functionIndexAt(rec.target));
    }
    EXPECT_GT(funcs.size(), prog.numFunctions() / 4);
}

// ---------------------------------------------------------------------
// Trace I/O tests
// ---------------------------------------------------------------------

/** A fast-to-simulate workload wrapped around smallParams(). */
WorkloadPreset
tinyPreset(std::uint64_t seed = 7)
{
    WorkloadPreset preset;
    preset.name = "tiny";
    preset.program = smallParams(seed);
    preset.program.name = "tiny";
    return preset;
}

TEST(TraceIOTest, RoundTrip)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 31);
    const std::string path = "/tmp/shotgun_test_trace.bin";

    TraceGenerator recorder_gen(prog, 31);
    const auto written = recordTrace(recorder_gen, preset, 31, path,
                                     10000);
    EXPECT_EQ(written, 10000u);

    TraceFileSource replay(path);
    EXPECT_EQ(replay.totalRecords(), 10000u);
    EXPECT_EQ(replay.traceSeed(), 31u);
    BBRecord live, replayed;
    std::uint64_t instrs = 0;
    for (int i = 0; i < 10000; ++i) {
        ASSERT_TRUE(gen.next(live));
        ASSERT_TRUE(replay.next(replayed));
        ASSERT_TRUE(live == replayed) << "record " << i;
        instrs += live.numInstrs;
    }
    EXPECT_FALSE(replay.next(replayed));
    EXPECT_EQ(replay.totalInstructions(), instrs);
    std::remove(path.c_str());
}

TEST(TraceIOTest, HeaderRoundTripsPresetAndSeed)
{
    WorkloadPreset preset = tinyPreset(123);
    preset.loadFrac = 0.41;
    preset.l1dMissRate = 0.017;
    preset.llcDataMissFrac = 0.23;
    preset.backgroundLoad = 2.75;
    preset.program.zipfAlpha = 1.4375;
    preset.program.stickyFrac = 0.61;
    Program prog(preset.program);
    TraceGenerator gen(prog, 99);
    const std::string path = "/tmp/shotgun_test_trace_hdr.bin";
    recordTrace(gen, preset, 99, path, 500);

    const TraceInfo info = readTraceInfo(path);
    EXPECT_EQ(info.records, 500u);
    EXPECT_GT(info.instructions, 500u);
    EXPECT_EQ(info.traceSeed, 99u);
    EXPECT_EQ(info.preset.name, "tiny");
    EXPECT_EQ(info.preset.tracePath, path);
    EXPECT_EQ(info.preset.loadFrac, 0.41);
    EXPECT_EQ(info.preset.l1dMissRate, 0.017);
    EXPECT_EQ(info.preset.llcDataMissFrac, 0.23);
    EXPECT_EQ(info.preset.backgroundLoad, 2.75);
    EXPECT_EQ(info.preset.program.name, "tiny");
    EXPECT_EQ(info.preset.program.numFuncs, preset.program.numFuncs);
    EXPECT_EQ(info.preset.program.zipfAlpha, 1.4375);
    EXPECT_EQ(info.preset.program.stickyFrac, 0.61);
    EXPECT_EQ(info.preset.program.seed, 123u);
    std::remove(path.c_str());
}

TEST(TraceIOTest, PresetByNameParsesTraceSpecs)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_trace_spec.bin";
    recordTrace(gen, preset, 1, path, 200);

    const WorkloadPreset by_path = presetByName("trace:" + path);
    EXPECT_EQ(by_path.name, "tiny");
    EXPECT_EQ(by_path.tracePath, path);

    const WorkloadPreset renamed =
        presetByName("trace:" + path + ":web-oltp");
    EXPECT_EQ(renamed.name, "web-oltp");
    EXPECT_EQ(renamed.tracePath, path);
    // The program identity is the recorded one, not the display name.
    EXPECT_EQ(renamed.program.name, "tiny");
    EXPECT_EQ(renamed.program.numFuncs, preset.program.numFuncs);
    std::remove(path.c_str());
}

TEST(TraceIOTest, OpenTraceSourceDispatchesOnTracePath)
{
    WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_trace_open.bin";
    recordTrace(gen, preset, 1, path, 100);

    auto live = openTraceSource(preset, prog, 1);
    EXPECT_NE(dynamic_cast<TraceGenerator *>(live.get()), nullptr);

    preset.tracePath = path;
    auto replay = openTraceSource(preset, prog, 1);
    auto *file = dynamic_cast<TraceFileSource *>(replay.get());
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->totalRecords(), 100u);
    std::remove(path.c_str());
}

TEST(TraceIOTest, ReplayedSimulationBitwiseMatchesLiveRun)
{
    const WorkloadPreset preset = tinyPreset();
    const std::uint64_t warmup = 20000, measure = 50000;
    const std::string path = "/tmp/shotgun_test_trace_replay.bin";

    // Record with slack beyond warmup+measure: the decoupled BPU
    // reads ahead of retirement, and the tail must match too.
    TraceGenerator gen(programFor(preset), 1);
    recordTraceInstructions(gen, preset, 1, path,
                            warmup + measure + 8000);

    SimConfig live = SimConfig::make(preset, SchemeType::Shotgun);
    live.warmupInstructions = warmup;
    live.measureInstructions = measure;
    const SimResult live_result = runSimulation(live);

    SimConfig replay = SimConfig::make(presetByName("trace:" + path),
                                       SchemeType::Shotgun);
    replay.warmupInstructions = warmup;
    replay.measureInstructions = measure;
    const SimResult a = runSimulation(replay);
    const SimResult b = runSimulation(replay); // deterministic re-run

    for (const SimResult *r : {&a, &b}) {
        EXPECT_EQ(r->workload, live_result.workload);
        EXPECT_EQ(r->scheme, live_result.scheme);
        EXPECT_EQ(r->instructions, live_result.instructions);
        EXPECT_EQ(r->cycles, live_result.cycles);
        EXPECT_EQ(r->ipc, live_result.ipc);
        EXPECT_EQ(r->btbMPKI, live_result.btbMPKI);
        EXPECT_EQ(r->l1iMPKI, live_result.l1iMPKI);
        EXPECT_EQ(r->mispredictsPerKI, live_result.mispredictsPerKI);
        EXPECT_EQ(r->stalls.icache, live_result.stalls.icache);
        EXPECT_EQ(r->stalls.btbResolve, live_result.stalls.btbResolve);
        EXPECT_EQ(r->stalls.misfetch, live_result.stalls.misfetch);
        EXPECT_EQ(r->stalls.mispredict, live_result.stalls.mispredict);
        EXPECT_EQ(r->frontEndStallCycles,
                  live_result.frontEndStallCycles);
        EXPECT_EQ(r->prefetchAccuracy, live_result.prefetchAccuracy);
        EXPECT_EQ(r->avgL1DFillCycles, live_result.avgL1DFillCycles);
        EXPECT_EQ(r->prefetchesIssued, live_result.prefetchesIssued);
        EXPECT_EQ(r->schemeStorageBits, live_result.schemeStorageBits);
    }
    std::remove(path.c_str());
}

// --------------------------------------------------------- rejection paths

/** Write raw bytes to a scratch file for header-rejection tests. */
std::string
writeRawFile(const std::string &path,
             const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

void
appendLE32(std::vector<unsigned char> &bytes, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

// ------------------------------------------- windowed-trace support

TEST(GeneratorTest, CheckpointRestoreContinuesIdentically)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);

    TraceGenerator original(prog, 77);
    advance(original, 4321);
    const GeneratorCheckpoint checkpoint = original.checkpoint();
    EXPECT_EQ(checkpoint.stats.basicBlocks, 4321u);

    // A differently seeded generator over the same program becomes
    // the checkpointed stream: synthetic workloads window
    // identically without regenerating the prefix.
    TraceGenerator restored(prog, 12345);
    restored.restore(checkpoint);
    BBRecord a, b;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(original.next(a));
        ASSERT_TRUE(restored.next(b));
        ASSERT_TRUE(a == b) << "record " << i;
    }
    EXPECT_EQ(original.stats().instructions,
              restored.stats().instructions);
}

TEST(GeneratorDeathTest, CheckpointAcrossProgramsPanics)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    ProgramParams other_params = preset.program;
    other_params.numFuncs += 50;
    Program other(other_params);

    TraceGenerator gen(prog, 1);
    const GeneratorCheckpoint checkpoint = gen.checkpoint();
    TraceGenerator foreign(other, 1);
    EXPECT_DEATH(foreign.restore(checkpoint), "different programs");
}

TEST(PresetsDeathTest, UnknownWorkloadListsEveryAlternative)
{
    // The error is the documentation at point of failure: it must
    // enumerate the built-in presets and the trace:<path> syntax.
    EXPECT_EXIT((void)presetByName("bogus-workload"),
                ::testing::ExitedWithCode(1),
                "unknown workload 'bogus-workload'.*nutch, streaming, "
                "apache, zeus, oracle, db2.*trace:<path>");
}

// A daemon runs a point after a submit-time check of its trace, and
// the file may be deleted, rewritten or re-recorded in between: every
// trace check a run makes throws TraceError, which fails the point
// (done:"error", a worker's ok:false), never the process.

/** Whether `run` throws a TraceError whose message contains `text`. */
template <typename F>
::testing::AssertionResult
throwsTraceError(F &&run, const std::string &text)
{
    try {
        run();
    } catch (const TraceError &e) {
        if (std::string(e.what()).find(text) != std::string::npos)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "TraceError '" << e.what() << "' lacks '" << text
               << "'";
    }
    return ::testing::AssertionFailure() << "no TraceError";
}

/**
 * Open `path` the way a command-line tool does: TraceFileSource throws
 * TraceError on a bad file, and fatalOnTraceError turns it into exit 1.
 */
void
openThroughCli(const std::string &path)
{
    fatalOnTraceError([&]() { TraceFileSource source(path); });
}

TEST(TraceIODeathTest, RejectsBadMagic)
{
    const auto path = writeRawFile(
        "/tmp/shotgun_test_badmagic.bin",
        {'n', 'o', 't', 'a', 't', 'r', 'a', 'c', 'e', '!'});
    EXPECT_TRUE(throwsTraceError([&]() { TraceFileSource source(path); },
                                 "not a shotgun trace file"));
    // The shared decode opens the file through the same constructor.
    EXPECT_TRUE(throwsTraceError([&]() { DecodedTrace trace(path); },
                                 "not a shotgun trace file"));
    EXPECT_EXIT(openThroughCli(path), ::testing::ExitedWithCode(1),
                "not a shotgun trace file");
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsForeignEndianMagic)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, 0x53485447); // kTraceMagic byte-swapped
    appendLE32(bytes, kTraceVersion);
    const auto path =
        writeRawFile("/tmp/shotgun_test_bigendian.bin", bytes);
    EXPECT_EXIT(openThroughCli(path), ::testing::ExitedWithCode(1),
                "foreign-endian");
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsVersion1)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, kTraceMagic);
    appendLE32(bytes, 1);
    const auto path = writeRawFile("/tmp/shotgun_test_v1.bin", bytes);
    EXPECT_EXIT(openThroughCli(path), ::testing::ExitedWithCode(1),
                "version-1 trace.*no longer supported");
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsUnknownFutureVersion)
{
    std::vector<unsigned char> bytes;
    appendLE32(bytes, kTraceMagic);
    appendLE32(bytes, 99);
    const auto path =
        writeRawFile("/tmp/shotgun_test_v99.bin", bytes);
    EXPECT_EXIT(openThroughCli(path), ::testing::ExitedWithCode(1),
                "unsupported trace version 99");
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsTruncatedRecords)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 1);
    const std::string path = "/tmp/shotgun_test_truncated.bin";
    recordTrace(gen, preset, 1, path, 1000);

    // Chop the tail off the last records; the header still claims
    // 1000, so replay must fail loudly rather than end quietly -- with
    // a TraceError a daemon reports and a tool turns into exit 1.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 30);

    TraceFileSource source(path);
    BBRecord rec;
    try {
        while (source.next(rec)) {
        }
        ADD_FAILURE() << "a truncated trace replayed to its end";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated trace file"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EXIT(fatalOnTraceError([&]() { return source.next(rec); }),
                ::testing::ExitedWithCode(1), "truncated trace file");
    std::remove(path.c_str());
}

// ------------------------------------------------------ the block codec
//
// Records move through one block of kTraceBlockRecords records in each
// direction. The digest pins the bytes of a recording as a writer of
// one field at a time produces them, so a codec change that moves one
// byte fails here. Damage placed at block edges must raise the
// message, and name the record, that a reader of one record at a time
// raises.

/** Records in the codec tests' recording: past three write blocks. */
constexpr std::uint64_t kCodecRecords = 12000;
static_assert(kCodecRecords > 3 * kTraceBlockRecords,
              "the codec tests' recording must span three blocks");

/** Record the codec tests' fixed stream into `path`. */
void
recordCodecTrace(const std::string &path)
{
    const WorkloadPreset preset = tinyPreset();
    Program prog(preset.program);
    TraceGenerator gen(prog, 41);
    ASSERT_EQ(recordTrace(gen, preset, 41, path, kCodecRecords),
              kCodecRecords);
}

/** FNV-1a 64 of the bytes of the file at `path`. */
std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return json::fnv1a64(bytes);
}

/** Byte offset of record `record` in the codec tests' recording. */
std::uint64_t
codecRecordOffset(const std::string &path, std::uint64_t record)
{
    return std::filesystem::file_size(path) -
           (kCodecRecords - record) * kTraceRecordBytes;
}

/** Streaming replay and the shared decode both throw `message`. */
void
expectBothReadersThrow(const std::string &path, const std::string &message)
{
    EXPECT_TRUE(throwsTraceError(
        [&]() {
            TraceFileSource source(path);
            BBRecord rec;
            while (source.next(rec)) {
            }
        },
        message));
    EXPECT_TRUE(
        throwsTraceError([&]() { DecodedTrace trace(path); }, message));
}

TEST(TraceCodecTest, RecordingBytesArePinned)
{
    const std::string path = "/tmp/shotgun_test_codec_bytes.bin";
    recordCodecTrace(path);
    EXPECT_EQ(fileDigest(path), 0x4d6cef6bd28411b7ULL);
    std::remove(path.c_str());
}

TEST(TraceCodecTest, DamageAtBlockEdgesNamesTheSameRecord)
{
    const std::string path = "/tmp/shotgun_test_codec_damage.bin";
    recordCodecTrace(path);
    const std::string of = " of " + std::to_string(kCodecRecords) +
                           " records";

    // Cut exactly where the third block starts.
    const std::string edge = "/tmp/shotgun_test_codec_edge.bin";
    const std::uint64_t edge_records = 2 * kTraceBlockRecords;
    std::filesystem::copy_file(
        path, edge, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(edge, codecRecordOffset(edge, edge_records));
    const std::string edge_error = "truncated trace file after " +
                                   std::to_string(edge_records) + of;
    expectBothReadersThrow(edge, "'" + edge + "': " + edge_error);

    // Cut inside a record of the third block.
    const std::string torn = "/tmp/shotgun_test_codec_torn.bin";
    const std::uint64_t torn_records = 2 * kTraceBlockRecords + 500;
    std::filesystem::copy_file(
        path, torn, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(torn,
                                 codecRecordOffset(torn, torn_records) + 7);
    const std::string torn_error = "truncated trace file after " +
                                   std::to_string(torn_records) + of;
    expectBothReadersThrow(torn, "'" + torn + "': " + torn_error);

    // A bad branch-type byte in the second block.
    const std::uint64_t bad = kTraceBlockRecords + 100;
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(
            static_cast<std::streamoff>(codecRecordOffset(path, bad) + 17));
        f.put(static_cast<char>(238));
    }
    expectBothReadersThrow(path, "'" + path + "': corrupt record " +
                                     std::to_string(bad) +
                                     " (bad branch type 238)");

    std::remove(edge.c_str());
    std::remove(torn.c_str());
    std::remove(path.c_str());
}

TEST(TraceIOTest, DecodedStoreThrowsOnAFileChangedSinceItsCheck)
{
    // A daemon checks a trace when it is submitted, but the file may
    // be deleted or rewritten before the run: the decoded store's
    // header re-read fails that point with a TraceError.
    const std::string path = "/tmp/shotgun_test_store_changed.bin";
    std::remove(path.c_str());
    try {
        decodedTraces().acquire(path);
        ADD_FAILURE() << "a missing trace decoded";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
                  std::string::npos)
            << e.what();
    }
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a trace";
    }
    EXPECT_THROW(decodedTraces().acquire(path), TraceError);
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsTraceShorterThanRun)
{
    const WorkloadPreset preset = tinyPreset();
    TraceGenerator gen(programFor(preset), 1);
    const std::string path = "/tmp/shotgun_test_short.bin";
    recordTraceInstructions(gen, preset, 1, path, 5000);

    SimConfig config = SimConfig::make(presetByName("trace:" + path),
                                       SchemeType::Shotgun);
    config.warmupInstructions = 20000;
    config.measureInstructions = 50000;
    EXPECT_TRUE(throwsTraceError([&]() { runSimulation(config); },
                                 "instructions but the run needs"));
    EXPECT_EXIT(fatalOnTraceError([&]() { return runSimulation(config); }),
                ::testing::ExitedWithCode(1), "record a longer trace");
    std::remove(path.c_str());
}

TEST(TraceIODeathTest, RejectsMismatchedProgram)
{
    const WorkloadPreset preset = tinyPreset();
    TraceGenerator gen(programFor(preset), 1);
    const std::string path = "/tmp/shotgun_test_mismatch.bin";
    recordTraceInstructions(gen, preset, 1, path, 100000);

    // Bind the trace to a workload with different program parameters.
    SimConfig config = SimConfig::make(tinyPreset(8), SchemeType::FDIP);
    config.workload.tracePath = path;
    config.warmupInstructions = 1000;
    config.measureInstructions = 1000;
    EXPECT_TRUE(throwsTraceError([&]() { runSimulation(config); },
                                 "was recorded from program"));
    EXPECT_EXIT(fatalOnTraceError([&]() { return runSimulation(config); }),
                ::testing::ExitedWithCode(1),
                "does not match this workload's program");
    std::remove(path.c_str());
}

TEST(TraceIOTest, MissingFileThrowsFromTheSource)
{
    const std::string path = "/tmp/shotgun_test_missing_source.bin";
    std::remove(path.c_str());
    EXPECT_TRUE(throwsTraceError([&]() { TraceFileSource source(path); },
                                 "cannot open trace file"));
    // The shared decode opens the file through the same constructor.
    EXPECT_TRUE(throwsTraceError([&]() { DecodedTrace trace(path); },
                                 "cannot open trace file"));
}

// ---------------------------------------------------------------------
// Preset tests
// ---------------------------------------------------------------------

TEST(PresetTest, AllSixWorkloadsExist)
{
    const auto presets = allPresets();
    ASSERT_EQ(presets.size(), 6u);
    EXPECT_EQ(presets[0].name, "nutch");
    EXPECT_EQ(presets[5].name, "db2");
}

TEST(PresetTest, LookupByName)
{
    EXPECT_EQ(presetByName("Oracle").id, WorkloadId::Oracle);
    EXPECT_EQ(presetByName("db2").id, WorkloadId::DB2);
}

TEST(PresetTest, FootprintOrderingMatchesPaper)
{
    // Oracle and DB2 have the largest code footprints; Nutch the
    // smallest (Table 1 ordering).
    Program nutch(makePreset(WorkloadId::Nutch).program);
    Program oracle(makePreset(WorkloadId::Oracle).program);
    Program db2(makePreset(WorkloadId::DB2).program);
    EXPECT_GT(oracle.codeBytes(), db2.codeBytes() / 2);
    EXPECT_GT(db2.codeBytes(), nutch.codeBytes());
    // Oracle's footprint is multi-MB like the paper's workload.
    EXPECT_GT(oracle.codeBytes(), 3u * 1024 * 1024);
}

} // namespace
} // namespace shotgun
