/**
 * @file
 * Unit tests for the bench command-line layer: strict numeric
 * validation (malformed --instructions/--warmup/--jobs values must be
 * rejected, never silently defaulted) and the parallelism/output
 * options; and for the figure driver's union grid.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "figures.hh"

namespace shotgun
{
namespace
{

using bench::BenchOptions;
using bench::tryParseOptions;

/** argv helper: owns the strings, exposes char** like main(). */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : strings_(std::move(args))
    {
        pointers_.push_back(const_cast<char *>("bench_test"));
        for (auto &s : strings_)
            pointers_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(pointers_.size()); }
    char **argv() { return pointers_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> pointers_;
};

bool
parse(std::vector<std::string> args, BenchOptions &opts,
      std::string &error)
{
    Argv argv(std::move(args));
    return tryParseOptions(argv.argc(), argv.argv(), opts, error);
}

class BenchOptionsTest : public ::testing::Test
{
  protected:
    BenchOptions opts;
    std::string error;
};

TEST_F(BenchOptionsTest, Defaults)
{
    ASSERT_TRUE(parse({}, opts, error));
    EXPECT_EQ(opts.measureInstructions, 5000000u);
    EXPECT_EQ(opts.warmupInstructions, 2000000u);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_TRUE(opts.writeFiles);
    EXPECT_TRUE(opts.showProgress);
    EXPECT_TRUE(opts.onlyWorkload.empty());
}

TEST_F(BenchOptionsTest, QuickAndExplicitValues)
{
    ASSERT_TRUE(parse({"--quick"}, opts, error));
    EXPECT_EQ(opts.measureInstructions, 1000000u);
    EXPECT_EQ(opts.warmupInstructions, 500000u);

    ASSERT_TRUE(parse({"--instructions", "123456", "--warmup", "0",
                       "--jobs", "3", "--workload", "db2"},
                      opts, error));
    EXPECT_EQ(opts.measureInstructions, 123456u);
    EXPECT_EQ(opts.warmupInstructions, 0u);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.onlyWorkload, "db2");
}

TEST_F(BenchOptionsTest, OutputFlags)
{
    ASSERT_TRUE(parse({"--out", "tmp/run", "--no-progress"}, opts,
                      error));
    EXPECT_EQ(opts.outDir, "tmp/run");
    EXPECT_FALSE(opts.showProgress);

    ASSERT_TRUE(parse({"--no-out"}, opts, error));
    EXPECT_FALSE(opts.writeFiles);
}

TEST_F(BenchOptionsTest, RejectsMalformedInstructions)
{
    EXPECT_FALSE(parse({"--instructions", "10x6"}, opts, error));
    EXPECT_NE(error.find("--instructions"), std::string::npos);

    EXPECT_FALSE(parse({"--instructions", "-5"}, opts, error));
    EXPECT_FALSE(parse({"--instructions", ""}, opts, error));
    EXPECT_FALSE(parse({"--instructions", "1e6"}, opts, error));
    EXPECT_FALSE(parse({"--instructions", "0"}, opts, error));
    EXPECT_FALSE(parse({"--instructions"}, opts, error))
        << "missing value must be an error";
}

TEST_F(BenchOptionsTest, RejectsMalformedWarmup)
{
    EXPECT_FALSE(parse({"--warmup", "abc"}, opts, error));
    EXPECT_NE(error.find("--warmup"), std::string::npos);
    EXPECT_FALSE(parse({"--warmup", "12 34"}, opts, error));
    EXPECT_FALSE(parse({"--warmup"}, opts, error));
    // Zero warm-up is legitimate.
    EXPECT_TRUE(parse({"--warmup", "0"}, opts, error));
}

TEST_F(BenchOptionsTest, RejectsMalformedJobs)
{
    EXPECT_FALSE(parse({"--jobs", "many"}, opts, error));
    EXPECT_FALSE(parse({"--jobs", "0"}, opts, error))
        << "--jobs 0 is reserved: omit the flag for hardware default";
    EXPECT_FALSE(parse({"--jobs"}, opts, error));
    // Values that only fit uint64 must not truncate to unsigned.
    EXPECT_FALSE(parse({"--jobs", "4294967296"}, opts, error))
        << "2^32 would silently truncate to 0 (hardware default)";
    EXPECT_FALSE(parse({"--jobs", "4294967297"}, opts, error));
}

TEST_F(BenchOptionsTest, RejectsUnknownOption)
{
    EXPECT_FALSE(parse({"--frobnicate"}, opts, error));
    EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST_F(BenchOptionsTest, CuratedDefaultsRespectWorkloadFilter)
{
    // Benches with a curated default subset sweep it only when no
    // --workload filter was given.
    ASSERT_TRUE(parse({}, opts, error));
    const auto defaults = bench::selectedPresets(
        opts, {WorkloadId::Oracle, WorkloadId::DB2});
    ASSERT_EQ(defaults.size(), 2u);
    EXPECT_EQ(defaults[0].name, "oracle");
    EXPECT_EQ(defaults[1].name, "db2");

    ASSERT_TRUE(parse({"--workload", "nutch"}, opts, error));
    const auto filtered = bench::selectedPresets(
        opts, {WorkloadId::Oracle, WorkloadId::DB2});
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].name, "nutch");
}

TEST_F(BenchOptionsTest, RejectsUnknownWorkload)
{
    EXPECT_FALSE(parse({"--workload", "nosuch"}, opts, error));
    EXPECT_NE(error.find("nosuch"), std::string::npos);
}

TEST_F(BenchOptionsTest, AcceptsTraceWorkloadSpecs)
{
    // trace:<path>[:name] passes the syntactic check; the file itself
    // is opened (and validated) only when the preset is built.
    ASSERT_TRUE(
        parse({"--workload", "trace:/tmp/foo.trace"}, opts, error));
    EXPECT_EQ(opts.onlyWorkload, "trace:/tmp/foo.trace");

    ASSERT_TRUE(parse({"--workload", "trace:/tmp/foo.trace:oltp"},
                      opts, error));
    EXPECT_EQ(opts.onlyWorkload, "trace:/tmp/foo.trace:oltp");

    EXPECT_FALSE(parse({"--workload", "trace:"}, opts, error));
    EXPECT_NE(error.find("trace:<path>"), std::string::npos);
}

TEST_F(BenchOptionsTest, SelectedPresetsHonorsFilter)
{
    ASSERT_TRUE(parse({}, opts, error));
    EXPECT_EQ(bench::selectedPresets(opts).size(), 6u);

    ASSERT_TRUE(parse({"--workload", "oracle"}, opts, error));
    const auto selected = bench::selectedPresets(opts);
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0].name, "oracle");
    EXPECT_TRUE(selected[0].tracePath.empty());
}

TEST_F(BenchOptionsTest, RunningFiguresTogetherChangesNoFigure)
{
    // Each figure alone, then all of them as one union grid in which
    // every distinct simulation runs once: no figure's table or
    // result rows may change.
    ASSERT_TRUE(parse({"--instructions", "40000", "--warmup", "20000",
                       "--workload", "nutch", "--jobs", "2",
                       "--no-progress"},
                      opts, error));
    const auto render = [this](const bench::FigureRun &run) {
        std::ostringstream os;
        bench::printFigure(run, opts, os);
        runner::ResultSink sink(run.figure->slug);
        runner::appendResultRows(run.set, run.results, sink);
        sink.writeJson(os);
        return os.str();
    };
    std::vector<const bench::Figure *> all;
    std::vector<std::string> alone;
    for (const bench::Figure &figure : bench::figures()) {
        all.push_back(&figure);
        alone.push_back(render(bench::runFigures({&figure}, opts).at(0)));
    }
    ASSERT_EQ(all.size(), 15u);
    const auto together = bench::runFigures(all, opts);
    ASSERT_EQ(together.size(), all.size());
    for (std::size_t f = 0; f < all.size(); ++f)
        EXPECT_EQ(render(together[f]), alone[f]) << all[f]->slug;
}

TEST_F(BenchOptionsTest, TraceWalkFiguresPrintTheirPinnedTables)
{
    // Figs 3 and 4 walk the stream and simulate nothing: no grid
    // points, and the tables the stand-alone benches printed.
    ASSERT_TRUE(parse({"--instructions", "200000", "--workload", "db2",
                       "--no-progress"},
                      opts, error));
    const std::vector<bench::FigureRun> runs = bench::runFigures(
        {bench::findFigure("fig3_spatial_locality"),
         bench::findFigure("fig4_branch_coverage")},
        opts);
    ASSERT_EQ(runs.size(), 2u);
    std::vector<std::string> tables;
    for (const bench::FigureRun &run : runs) {
        EXPECT_TRUE(run.set.empty()) << run.figure->slug;
        std::ostringstream os;
        bench::printFigure(run, opts, os);
        tables.push_back(os.str());
    }
    EXPECT_EQ(tables[0],
              "== Figure 3 (cumulative access probability by distance) "
              "==\n"
              "Workload  d=0    <=1    <=2    <=4    <=6    <=10   <=16"
              "   >16\n"
              "-----------------------------------------------------------"
              "----\n"
              "db2       23.3%  48.7%  62.6%  79.5%  86.7%  92.8%  96.9%"
              "  3.1%\n");
    EXPECT_EQ(tables[1],
              "== Figure 4 (cumulative dynamic branch coverage) ==\n"
              "Series               1K     2K     3K      4K      6K      "
              "8K\n"
              "-----------------------------------------------------------"
              "------\n"
              "db2 (all branches)   70.5%  85.2%  91.3%   93.9%   99.0%   "
              "100.0%\n"
              "db2 (unconditional)  89.4%  97.8%  100.0%  100.0%  100.0%  "
              "100.0%\n");
}

} // namespace
} // namespace shotgun
