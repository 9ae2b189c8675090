/**
 * @file
 * Fixture tests for draid_lint (DESIGN.md §5.6): every rule must fire at
 * the exact location planted in tools/draid_lint/fixtures/, the clean and
 * suppressed fixtures must pass, and the real repo must lint clean inside
 * its suppression budget.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

#ifndef DRAID_LINT_BIN
#error "tests/CMakeLists.txt must define DRAID_LINT_BIN"
#endif
#ifndef DRAID_LINT_FIXTURES
#error "tests/CMakeLists.txt must define DRAID_LINT_FIXTURES"
#endif
#ifndef DRAID_REPO_ROOT
#error "tests/CMakeLists.txt must define DRAID_REPO_ROOT"
#endif

struct LintRun
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved
};

/** Run the lint binary with @p args, capturing output and exit code. */
LintRun
runLint(const std::string &args)
{
    const std::string cmd =
        std::string(DRAID_LINT_BIN) + " " + args + " 2>&1";
    LintRun r;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf;
    std::size_t got;
    while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), got);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        r.exitCode = WEXITSTATUS(status);
    return r;
}

/** Lint one fixture file against the fixture tree. */
LintRun
lintFixture(const std::string &rel, const std::string &extra = "")
{
    return runLint("--repo=" + std::string(DRAID_LINT_FIXTURES) + " " +
                   extra + " " + rel);
}

TEST(DraidLint, WallClockFiresAtPlantedLine)
{
    const LintRun r = lintFixture("src/sim/wall_clock.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/sim/wall_clock.cc:8: wall-clock:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, WallClockStillFiresInsideEngineObserverImpls)
{
    // The EngineObserver hook gives src/sim/ a seam where host-time reads
    // would be tempting; the rule must still catch a clock read there.
    const LintRun r = lintFixture("src/sim/engine_observer_clock.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(
        r.output.find("src/sim/engine_observer_clock.cc:13: wall-clock:"),
        std::string::npos)
        << r.output;
}

TEST(DraidLint, WallClockAllowsProfilerReadsInTelemetry)
{
    // src/telemetry/ is the exempt directory: the same steady_clock read
    // that fires in src/sim/ is legal in a profiler implementation.
    const LintRun r = lintFixture("src/telemetry/profiler_clock.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos)
        << r.output;
}

TEST(DraidLint, RawRngFiresOnIncludeAndEngine)
{
    const LintRun r = lintFixture("src/sim/raw_rng.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/sim/raw_rng.cc:1: raw-rng:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/sim/raw_rng.cc:8: raw-rng:"),
              std::string::npos)
        << r.output;
}

// The campaign engine is the newest consumer of seeded randomness; the
// raw-rng rule must cover src/campaign/ like any other src/ directory so
// schedule generation can never bypass sim::Rng.
TEST(DraidLint, RawRngCoversCampaignScope)
{
    const LintRun r = lintFixture("src/campaign/raw_rng.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/campaign/raw_rng.cc:1: raw-rng:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/campaign/raw_rng.cc:8: raw-rng:"),
              std::string::npos)
        << r.output;
}

// src/telemetry/ is draw-free by contract: even sim::Rng is banned
// there, because a sampling decision backed by an engine draw would
// shift the seed chain of the simulation being observed.
TEST(DraidLint, RawRngFiresOnRngInTelemetryScope)
{
    const LintRun r = lintFixture("src/telemetry/sampler_rng.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/telemetry/sampler_rng.cc:7: raw-rng:"),
              std::string::npos)
        << r.output;
}

// The draw-free bar extends to the contention-attribution sources: the
// FIFO pipes, CPU cores and stripe locks whose occupancy records feed
// ContentionTracker. An Rng draw there would perturb the recorded
// segments and break BENCH_interference.json's double-run determinism.
TEST(DraidLint, RawRngFiresOnRngInAttributionSources)
{
    const LintRun pipe = lintFixture("src/sim/pipe_rng.cc");
    EXPECT_EQ(pipe.exitCode, 1);
    EXPECT_NE(pipe.output.find("src/sim/pipe_rng.cc:8: raw-rng:"),
              std::string::npos)
        << pipe.output;

    const LintRun lock = lintFixture("src/raid/stripe_lock_rng.cc");
    EXPECT_EQ(lock.exitCode, 1);
    EXPECT_NE(
        lock.output.find("src/raid/stripe_lock_rng.cc:7: raw-rng:"),
        std::string::npos)
        << lock.output;
}

// ... and the replacement idiom — head sampling by a seeded hash of the
// trace id — lints clean in the same scope.
TEST(DraidLint, HashBasedSamplerIsCleanInTelemetryScope)
{
    const LintRun r = lintFixture("src/telemetry/sampler_hash.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos)
        << r.output;
}

TEST(DraidLint, UnorderedIterFiresOnRangeFor)
{
    const LintRun r = lintFixture("src/core/unordered_iter.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(
        r.output.find("src/core/unordered_iter.cc:12: unordered-iter:"),
        std::string::npos)
        << r.output;
}

TEST(DraidLint, PtrKeyFiresOnPointerKeyedMap)
{
    const LintRun r = lintFixture("src/raid/ptr_key.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/raid/ptr_key.cc:7: ptr-key:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, IncludeFirstFiresWhenOwnHeaderNotFirst)
{
    const LintRun r = lintFixture("src/net/include_first.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/net/include_first.cc:1: include-first:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, NsHeaderFiresOnUsingNamespaceInHeader)
{
    const LintRun r = lintFixture("src/net/ns_header.h");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/net/ns_header.h:6: ns-header:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, FpAccumFiresOnDoubleAccumulation)
{
    const LintRun r = lintFixture("src/sim/fp_accum.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/sim/fp_accum.cc:8: fp-accum:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, CleanFileProducesNoDiagnostics)
{
    const LintRun r = lintFixture("src/core/clean.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos)
        << r.output;
}

TEST(DraidLint, SuppressionWithReasonSilencesTheRule)
{
    const LintRun r = lintFixture("src/core/suppressed.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_NE(r.output.find("1 suppression(s)"), std::string::npos)
        << r.output;
}

TEST(DraidLint, ReasonlessSuppressionIsItselfAViolation)
{
    const LintRun r = lintFixture("src/core/bad_suppression.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(
        r.output.find("src/core/bad_suppression.cc:8: bad-suppression:"),
        std::string::npos)
        << r.output;
    // Without a valid reason the underlying violation still reports.
    EXPECT_NE(r.output.find("src/core/bad_suppression.cc:9: wall-clock:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, SuppressionBudgetEnforced)
{
    const LintRun r =
        lintFixture("src/core/suppressed.cc", "--max-suppressions=0");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("suppression budget exceeded"),
              std::string::npos)
        << r.output;
}

// ---- v2 semantic rules -------------------------------------------------

TEST(DraidLint, LayeringFiresOnInvertedIncludeEdge)
{
    const LintRun r = lintFixture("src/raid/layering_bad.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/raid/layering_bad.cc:3: layering:"),
              std::string::npos)
        << r.output;
    // The message names the offending edge and the allowed set.
    EXPECT_NE(r.output.find("src/raid/layering_bad.cc -> "
                            "core/draid_host.h"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("allowed: sim, telemetry"), std::string::npos)
        << r.output;
}

TEST(DraidLint, MoveArgReadFiresOnACallThatMovesAndReadsOneName)
{
    const LintRun r = lintFixture("src/core/move_arg_read.cc");
    EXPECT_EQ(r.exitCode, 1);
    // An init-capture move beside a read, and a plain std::move beside a
    // read; the clean() calls below them stay quiet.
    EXPECT_NE(r.output.find("src/core/move_arg_read.cc:19: move-arg-read: "
                            "'fix'"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/core/move_arg_read.cc:20: move-arg-read: "
                            "'data'"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("2 violation(s)"), std::string::npos)
        << r.output;
}

TEST(DraidLint, TickUnitFiresOnRawTickParamAndReturn)
{
    const LintRun r = lintFixture("src/sim/simulator.h");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/sim/simulator.h:10: tick-unit:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("return type in 'now'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/sim/simulator.h:11: tick-unit:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("parameter in 'scheduleAt'"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, BoundedMemoryFiresOnUncappedMember)
{
    const LintRun r = lintFixture("src/core/unbounded_member.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(
        r.output.find("src/core/unbounded_member.cc:8: bounded-memory:"),
        std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("'pending_' (std::vector in RebuildQueue)"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, BoundedMemoryAcceptsCapAnnotation)
{
    const LintRun r = lintFixture("src/core/capped_member.cc");
    EXPECT_EQ(r.exitCode, 0);
    // A cap() is a contract, not a suppression: it must not count
    // against the allow() budget.
    EXPECT_NE(r.output.find("0 violation(s), 0 suppression(s)"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, EmptyCapIsMalformedAndMemberStillReports)
{
    const LintRun r = lintFixture("src/core/bad_cap.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("src/core/bad_cap.cc:7: bad-suppression:"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("src/core/bad_cap.cc:8: bounded-memory:"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, CallbackDisciplineFiresOnDrainFanoutAndAlloc)
{
    const LintRun r = lintFixture("src/core/callback_bad.cc");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(
        r.output.find("src/core/callback_bad.cc:14: callback-discipline:"),
        std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("synchronous drain"), std::string::npos)
        << r.output;
    EXPECT_NE(
        r.output.find("src/core/callback_bad.cc:16: callback-discipline:"),
        std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("fans out unbounded events"),
              std::string::npos)
        << r.output;
    EXPECT_NE(
        r.output.find("src/core/callback_bad.cc:18: callback-discipline:"),
        std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("allocation ('new')"), std::string::npos)
        << r.output;
}

// ---- output formats & exit codes ---------------------------------------

TEST(DraidLint, JsonFormatCarriesViolationsAndCounts)
{
    const LintRun r =
        lintFixture("src/core/unbounded_member.cc", "--format=json");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("\"files\":1"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"rule\":\"bounded-memory\""),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("\"file\":\"src/core/unbounded_member.cc\","
                            "\"line\":8"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, GithubFormatEmitsWorkflowAnnotations)
{
    const LintRun r =
        lintFixture("src/raid/layering_bad.cc", "--format=github");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("::error file=src/raid/layering_bad.cc,"
                            "line=3,title=draid-lint layering::"),
              std::string::npos)
        << r.output;
}

TEST(DraidLint, ListRulesPrintsEveryRuleAndExitsZero)
{
    const LintRun r = runLint("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *rule :
         {"wall-clock", "layering", "tick-unit", "bounded-memory",
          "callback-discipline", "move-arg-read", "bad-suppression"})
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "rule " << rule << " missing from --list-rules:\n"
            << r.output;
}

TEST(DraidLint, UsageErrorsExitTwo)
{
    EXPECT_EQ(runLint("--format=yaml").exitCode, 2);
    EXPECT_EQ(runLint("--only=no-such-rule").exitCode, 2);
    EXPECT_EQ(runLint("--repo=" + std::string(DRAID_LINT_FIXTURES) +
                      " src/does_not_exist.cc")
                  .exitCode,
              2);
}

TEST(DraidLint, OnlyFilterRestrictsToOneRule)
{
    // bad_cap.cc violates both bad-suppression and bounded-memory;
    // --only keeps exactly one of them.
    const LintRun r =
        lintFixture("src/core/bad_cap.cc", "--only=bounded-memory");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("bounded-memory:"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("bad-suppression:"), std::string::npos)
        << r.output;
}

TEST(DraidLint, WholeFixtureTreeFiresEveryRule)
{
    const LintRun r = runLint("--repo=" +
                              std::string(DRAID_LINT_FIXTURES) + " src");
    EXPECT_EQ(r.exitCode, 1);
    for (const char *rule :
         {"wall-clock", "raw-rng", "unordered-iter", "ptr-key",
          "include-first", "ns-header", "fp-accum", "bad-suppression",
          "layering", "tick-unit", "bounded-memory",
          "callback-discipline", "move-arg-read"})
        EXPECT_NE(r.output.find(std::string(": ") + rule + ":"),
                  std::string::npos)
            << "rule " << rule << " never fired:\n"
            << r.output;
}

/** The enforcement test: the repo itself lints clean, inside budget. */
TEST(DraidLint, RepoIsCleanWithinSuppressionBudget)
{
    const LintRun r = runLint("--repo=" + std::string(DRAID_REPO_ROOT) +
                              " --max-suppressions=12");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

/** Per-rule gates: each v2 semantic rule holds repo-wide on its own. */
TEST(DraidLint, RepoIsCleanUnderEachSemanticRule)
{
    for (const char *rule : {"layering", "tick-unit", "bounded-memory",
                             "callback-discipline"}) {
        const LintRun r =
            runLint("--repo=" + std::string(DRAID_REPO_ROOT) +
                    " --only=" + rule);
        EXPECT_EQ(r.exitCode, 0)
            << "rule " << rule << " fires on the repo:\n"
            << r.output;
    }
}

} // namespace
