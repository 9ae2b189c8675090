// Fault-campaign engine: durability math, schedule generation, fault
// hooks (gray drive, latent sector errors, rebuild stripe failures), and
// an end-to-end mini campaign with a deterministic JSON report.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/durability.h"
#include "campaign/fault_schedule.h"
#include "core/reconstruct.h"
#include "draid_test_util.h"
#include "ec/buffer.h"
#include "nvme/ssd.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "telemetry/event_journal.h"
#include "telemetry/probe.h"
#include "telemetry/telemetry.h"

namespace campaign = draid::campaign;
namespace testutil = draid::testutil;
using draid::sim::Simulator;
using draid::telemetry::EventJournal;
using draid::telemetry::EventType;

// ---------------------------------------------------------------------------
// Durability math
// ---------------------------------------------------------------------------

TEST(Durability, WilsonIntervalHandChecked)
{
    // 0/32 losses at 95%: the upper bound is z^2 / (n + z^2).
    const campaign::WilsonInterval w0 = campaign::wilsonInterval(0, 32);
    EXPECT_DOUBLE_EQ(w0.lo, 0.0);
    EXPECT_NEAR(w0.hi, 1.96 * 1.96 / (32.0 + 1.96 * 1.96), 1e-12);
    EXPECT_NEAR(w0.hi, 0.107183, 1e-6);

    // 6/32 losses: the interval brackets the point estimate.
    const campaign::WilsonInterval w6 = campaign::wilsonInterval(6, 32);
    EXPECT_LT(w6.lo, 6.0 / 32.0);
    EXPECT_GT(w6.hi, 6.0 / 32.0);
    EXPECT_NEAR(w6.lo, 0.088894, 1e-6);
    EXPECT_NEAR(w6.hi, 0.353095, 1e-6);

    // Mirror symmetry: losses and survivals swap the bounds.
    const campaign::WilsonInterval w26 = campaign::wilsonInterval(26, 32);
    EXPECT_NEAR(w26.lo, 1.0 - w6.hi, 1e-12);
    EXPECT_NEAR(w26.hi, 1.0 - w6.lo, 1e-12);
}

TEST(Durability, WilsonIntervalDegenerateCases)
{
    const campaign::WilsonInterval none = campaign::wilsonInterval(0, 0);
    EXPECT_DOUBLE_EQ(none.lo, 0.0);
    EXPECT_DOUBLE_EQ(none.hi, 1.0);

    const campaign::WilsonInterval all = campaign::wilsonInterval(32, 32);
    EXPECT_GT(all.lo, 0.8);
    EXPECT_DOUBLE_EQ(all.hi, 1.0);
}

TEST(Durability, MttdlFormulas)
{
    // MTTF^2 / (N (N-1) MTTR) with easy numbers.
    EXPECT_NEAR(campaign::mttdlHours(100.0, 1.0, 4),
                100.0 * 100.0 / (4.0 * 3.0), 1e-9);

    // Sim gap Exp(gap) vs real gap Exp(MTTF / (width-1)).
    EXPECT_NEAR(campaign::accelHoursPerTick(1.2e6, 4, 4.0e6), 0.1, 1e-12);

    // A rebuild lasting gap*ln2 loses exactly half the trials.
    const double gap = 5.0e6;
    EXPECT_NEAR(campaign::modelLossProbability(gap * std::log(2.0), gap),
                0.5, 1e-12);
    EXPECT_NEAR(campaign::modelLossProbability(0.0, gap), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

TEST(FaultSchedule, SameSeedSameSchedule)
{
    const campaign::ScheduleShape shape;
    for (const campaign::ScenarioClass cls :
         {campaign::ScenarioClass::kBenign,
          campaign::ScenarioClass::kCorrelatedDual,
          campaign::ScenarioClass::kLseRebuild,
          campaign::ScenarioClass::kGrayFlap}) {
        draid::sim::Rng a(42), b(42);
        const std::vector<campaign::FaultAction> sa =
            campaign::generateSchedule(cls, shape, a);
        const std::vector<campaign::FaultAction> sb =
            campaign::generateSchedule(cls, shape, b);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].tick, sb[i].tick);
            EXPECT_EQ(sa[i].kind, sb[i].kind);
            EXPECT_EQ(sa[i].device, sb[i].device);
            EXPECT_EQ(sa[i].stripe, sb[i].stripe);
            EXPECT_DOUBLE_EQ(sa[i].factor, sb[i].factor);
            EXPECT_EQ(sa[i].duration, sb[i].duration);
            EXPECT_EQ(sa[i].cycles, sb[i].cycles);
        }
        // Sorted by arming tick regardless of generation order.
        for (std::size_t i = 1; i < sa.size(); ++i)
            EXPECT_LE(sa[i - 1].tick, sa[i].tick);
    }
}

TEST(FaultSchedule, ClassCompositions)
{
    const campaign::ScheduleShape shape;
    draid::sim::Rng rng(7);

    const std::vector<campaign::FaultAction> benign =
        campaign::generateSchedule(campaign::ScenarioClass::kBenign, shape,
                                   rng);
    ASSERT_EQ(benign.size(), 1u);
    EXPECT_EQ(benign[0].kind, campaign::FaultKind::kDriveFailure);
    EXPECT_LT(benign[0].device, shape.width);
    // First failure lands in [mean/2, 3*mean/2).
    EXPECT_GE(benign[0].tick, shape.firstFailureTick / 2);
    EXPECT_LT(benign[0].tick, shape.firstFailureTick * 3 / 2);

    const std::vector<campaign::FaultAction> dual =
        campaign::generateSchedule(campaign::ScenarioClass::kCorrelatedDual,
                                   shape, rng);
    ASSERT_EQ(dual.size(), 2u);
    EXPECT_EQ(dual[0].kind, campaign::FaultKind::kDriveFailure);
    EXPECT_EQ(dual[1].kind, campaign::FaultKind::kSecondFailure);
    EXPECT_NE(dual[0].device, dual[1].device);
    EXPECT_GT(dual[1].tick, dual[0].tick);

    const std::vector<campaign::FaultAction> lse =
        campaign::generateSchedule(campaign::ScenarioClass::kLseRebuild,
                                   shape, rng);
    ASSERT_EQ(lse.size(), shape.lseCount + 1u);
    std::uint32_t lses = 0, failures = 0;
    for (const campaign::FaultAction &a : lse) {
        if (a.kind == campaign::FaultKind::kLatentSectorError) {
            ++lses;
            EXPECT_EQ(a.tick, 0); // planted before the preload finishes
            EXPECT_LT(a.stripe, shape.stripes);
        } else {
            ++failures;
            EXPECT_EQ(a.kind, campaign::FaultKind::kDriveFailure);
        }
    }
    EXPECT_EQ(lses, shape.lseCount);
    EXPECT_EQ(failures, 1u);

    const std::vector<campaign::FaultAction> gray =
        campaign::generateSchedule(campaign::ScenarioClass::kGrayFlap, shape,
                                   rng);
    ASSERT_EQ(gray.size(), 3u);
    std::uint32_t kinds[3] = {0, 0, 0};
    for (const campaign::FaultAction &a : gray) {
        switch (a.kind) {
          case campaign::FaultKind::kGrayDrive: ++kinds[0]; break;
          case campaign::FaultKind::kTargetFlap: ++kinds[1]; break;
          case campaign::FaultKind::kPortDegrade: ++kinds[2]; break;
          default: FAIL() << "drive death in the no-death class";
        }
    }
    EXPECT_EQ(kinds[0], 1u);
    EXPECT_EQ(kinds[1], 1u);
    EXPECT_EQ(kinds[2], 1u);
    // Churn primitives land on distinct devices.
    EXPECT_NE(gray[0].device, gray[1].device);
    EXPECT_NE(gray[1].device, gray[2].device);
    EXPECT_NE(gray[0].device, gray[2].device);
}

// ---------------------------------------------------------------------------
// SSD fault hooks
// ---------------------------------------------------------------------------

namespace {

/** Read [0, 4096) synchronously; returns the elapsed ticks. */
draid::sim::Ticks
timedRead(Simulator &sim, draid::nvme::Ssd &ssd, bool *ok_out = nullptr)
{
    const draid::sim::Ticks start = sim.now();
    testutil::readSync(sim, ssd, 0, 4096, ok_out);
    return sim.now() - start;
}

} // namespace

TEST(SsdFaults, DegradeFactorInflatesLatency)
{
    Simulator sim;
    draid::nvme::SsdConfig cfg;
    cfg.capacity = 1 << 20;
    draid::nvme::Ssd ssd(sim, cfg);

    const draid::sim::Ticks nominal = timedRead(sim, ssd);
    ssd.setDegradeFactor(4.0);
    const draid::sim::Ticks gray = timedRead(sim, ssd);
    ssd.setDegradeFactor(1.0);
    const draid::sim::Ticks restored = timedRead(sim, ssd);

    EXPECT_GT(gray.raw(), 3 * nominal.raw());
    EXPECT_EQ(restored.raw(), nominal.raw());
}

TEST(SsdFaults, LatentSectorErrorFailsReadsUntilRewritten)
{
    Simulator sim;
    draid::telemetry::Telemetry tel;
    EventJournal &journal = tel.journal();
    draid::nvme::SsdConfig cfg;
    cfg.capacity = 1 << 20;
    draid::nvme::Ssd ssd(sim, cfg);
    ssd.attach(draid::telemetry::Probe(tel, 3));

    ssd.plantLatentSectorError(1024, 512);
    EXPECT_EQ(ssd.latentSectorErrors(), 1u);

    // An intersecting read burns media time, then fails.
    bool ok = true;
    const draid::sim::Ticks elapsed = timedRead(sim, ssd, &ok);
    EXPECT_FALSE(ok);
    EXPECT_GT(elapsed.raw(), 0);
    EXPECT_EQ(ssd.latentErrorsHit(), 1u);

    // Discovery is journaled with the media range.
    const std::vector<EventJournal::Event> ev = journal.snapshot();
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].type, EventType::kLatentSectorError);
    EXPECT_EQ(ev[0].node, 3u);
    EXPECT_EQ(ev[0].a, 1024u);
    EXPECT_EQ(ev[0].b, 512u);

    // A disjoint read is unaffected.
    bool okDisjoint = false;
    testutil::readSync(sim, ssd, 8192, 4096, &okDisjoint);
    EXPECT_TRUE(okDisjoint);

    // Rewriting the range remaps the sector; reads succeed again.
    draid::ec::Buffer fresh(4096);
    fresh.fillPattern(9);
    EXPECT_TRUE(testutil::writeSync(sim, ssd, 0, fresh));
    EXPECT_EQ(ssd.latentSectorErrors(), 0u);
    bool okAfter = false;
    testutil::readSync(sim, ssd, 0, 4096, &okAfter);
    EXPECT_TRUE(okAfter);
}

// ---------------------------------------------------------------------------
// Rebuild stripe-failure hook
// ---------------------------------------------------------------------------

TEST(RebuildHook, OnStripeFailedReportsEachFailedStripe)
{
    Simulator sim;
    std::vector<std::uint64_t> failed;
    draid::core::RebuildJob job(
        sim,
        [&sim](std::uint64_t stripe, std::function<void(bool)> done) {
            sim.schedule(draid::sim::Ticks{10}, "test.stripe", [stripe, done]() {
                done(stripe != 2 && stripe != 5);
            });
        },
        8, 4096, 4);
    job.onStripeFailed([&failed](std::uint64_t s) { failed.push_back(s); });

    bool ok = true;
    bool finished = false;
    job.start([&](bool success) {
        ok = success;
        finished = true;
    });
    sim.run();

    EXPECT_TRUE(finished);
    EXPECT_FALSE(ok);
    ASSERT_EQ(failed.size(), 2u);
    EXPECT_EQ(failed[0], 2u);
    EXPECT_EQ(failed[1], 5u);
}

// ---------------------------------------------------------------------------
// End-to-end mini campaign
// ---------------------------------------------------------------------------

TEST(Campaign, BenignClassLosesNothingAndReportsDeterministically)
{
    campaign::CampaignConfig cfg;
    cfg.trials = 2;
    cfg.seed = 11;
    cfg.classes = {campaign::ScenarioClass::kBenign};

    const campaign::CampaignReport a = campaign::runCampaign(cfg);
    ASSERT_EQ(a.classes.size(), 1u);
    const campaign::ClassReport &cr = a.classes[0];
    EXPECT_EQ(cr.trials, 2u);
    EXPECT_EQ(cr.losses, 0u);
    EXPECT_EQ(cr.integrityFailures, 0u);
    EXPECT_EQ(cr.unexplainedIntegrityFailures, 0u);
    EXPECT_DOUBLE_EQ(cr.lossP, 0.0);
    EXPECT_GT(cr.rebuildMsMean, 0.0); // a rebuild ran in every trial
    EXPECT_GT(cr.exposureMsMean, 0.0);

    // Same seed, second run: byte-identical JSON report.
    const campaign::CampaignReport b = campaign::runCampaign(cfg);
    std::ostringstream ja, jb;
    campaign::writeCampaignJson(ja, a);
    campaign::writeCampaignJson(jb, b);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_FALSE(ja.str().empty());

    // Every JSONL row is well-formed JSON.
    std::istringstream lines(ja.str());
    std::string line;
    int rows = 0;
    while (std::getline(lines, line)) {
        ++rows;
        EXPECT_TRUE(testutil::JsonChecker(line).valid()) << line;
    }
    EXPECT_EQ(rows, 1); // one class, no cross-check without correlated-dual
}

TEST(Campaign, CorrelatedDualRecordsVerdictForEveryIntegrityFailure)
{
    campaign::CampaignConfig cfg;
    cfg.trials = 4;
    cfg.seed = 3;
    cfg.classes = {campaign::ScenarioClass::kCorrelatedDual};

    const campaign::CampaignReport r = campaign::runCampaign(cfg);
    ASSERT_EQ(r.classes.size(), 1u);
    const campaign::ClassReport &cr = r.classes[0];
    EXPECT_EQ(cr.trials, 4u);
    // Whatever happened, no integrity failure went unexplained. The
    // converse can hold: an overlapping-exposure verdict is recorded
    // even when the rebuild happened to read everything it needed first,
    // so losses may exceed the bit-level integrity failures.
    EXPECT_EQ(cr.unexplainedIntegrityFailures, 0u);
    EXPECT_GE(cr.losses, cr.integrityFailures);
    // The MTTDL cross-check row rides on this class.
    EXPECT_TRUE(r.mttdl.valid);
    EXPECT_GT(r.mttdl.mttdlHours, 0.0);
    EXPECT_GT(r.mttdl.accelHoursPerTick, 0.0);
    EXPECT_NEAR(r.mttdl.measuredLossP, cr.lossP, 1e-12);
}
