/**
 * Tests for the testkit itself plus the differential sweeps it
 * powers. The *Sweep* tests are the slow tier (ctest -L slow); the
 * rest run in the fast tier.
 *
 * The key meta-test: a deliberately broken MSM variant (off-by-one,
 * drops the last point) must be caught by the differential runner
 * and shrunk to a repro of at most 4 pairs.
 */

#include <gtest/gtest.h>

#include <set>

#include "gpusim/perf_model.hh"
#include "testkit/testkit.hh"

using namespace gzkp;
using namespace gzkp::testkit;

namespace {

std::string
failureText(const FuzzReport &rep)
{
    std::string s;
    for (const auto &f : rep.failures)
        s += f.target + ": " + f.detail + " (repro: " + f.repro +
            ")\n";
    return s;
}

const FuzzTarget &
row(const char *kind)
{
    const FuzzTarget *t = findFuzzTarget(kind);
    if (t == nullptr)
        throw std::invalid_argument(kind);
    return *t;
}

/** The default table without the rows that run Groth16 proofs. */
std::vector<FuzzTarget>
rowsWithoutProofs()
{
    auto rows = fuzzTargets();
    std::erase_if(rows, [](const FuzzTarget &t) {
        return t.kind == "groth16" || t.kind == "proofdet" ||
            t.kind == "fault" || t.kind == "workload";
    });
    return rows;
}

} // namespace

// ---------------------------------------------------------- runner

TEST(Differential, AgreementReturnsNullopt)
{
    Differential<int, int> d("double", [](const int &x) {
        return 2 * x;
    });
    d.add("shift", [](const int &x) { return x << 1; });
    EXPECT_FALSE(d.run(0).has_value());
    EXPECT_FALSE(d.run(21).has_value());
}

TEST(Differential, ReportsDivergentVariantByName)
{
    Differential<int, int> d("double", [](const int &x) {
        return 2 * x;
    });
    d.add("good", [](const int &x) { return 2 * x; });
    d.add("breaks-past-3", [](const int &x) {
        return x > 3 ? 2 * x + 1 : 2 * x;
    });
    EXPECT_FALSE(d.run(3).has_value());
    auto div = d.run(5);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->variant, "breaks-past-3");
}

TEST(Differential, CapturesVariantExceptions)
{
    Differential<int, int> d("id", [](const int &x) { return x; });
    d.add("throws", [](const int &) -> int {
        throw std::runtime_error("boom");
    });
    auto div = d.run(1);
    ASSERT_TRUE(div.has_value());
    EXPECT_EQ(div->variant, "throws");
    EXPECT_NE(div->detail.find("boom"), std::string::npos);
}

// ------------------------------------------------------- generators

TEST(Generators, SameSeedSameInstance)
{
    auto a = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         99);
    auto b = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         99);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a.points[i] == b.points[i]);
        EXPECT_TRUE(a.scalars[i] == b.scalars[i]);
    }
    auto c = msmInstance<ec::Bn254G1Cfg>(17, ScalarMix::Adversarial,
                                         100);
    bool same = true;
    for (std::size_t i = 0; i < a.size(); ++i)
        same = same && a.scalars[i] == c.scalars[i];
    EXPECT_FALSE(same);
}

TEST(Generators, KindNamesRoundTrip)
{
    for (std::size_t i = 0; i < kScalarMixCount; ++i) {
        auto k = ScalarMix(i);
        EXPECT_EQ(scalarMixFromName(name(k)), k);
    }
    EXPECT_THROW(scalarMixFromName("nope"), std::invalid_argument);
}

TEST(Generators, BiasedFieldHitsBoundaryValues)
{
    using Fr = ff::Bn254Fr;
    Rng rng(7);
    bool saw_zero = false, saw_one = false, saw_minus_one = false;
    for (int i = 0; i < 500; ++i) {
        Fr x = biasedField<Fr>(rng);
        saw_zero |= x == Fr::zero();
        saw_one |= x == Fr::one();
        saw_minus_one |= x == -Fr::one();
    }
    EXPECT_TRUE(saw_zero);
    EXPECT_TRUE(saw_one);
    EXPECT_TRUE(saw_minus_one);
}

TEST(Generators, RandomCircuitIsSatisfiable)
{
    using Fr = ff::Bn254Fr;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto b = randomCircuit<Fr>(seed);
        EXPECT_TRUE(b.cs().isSatisfied(b.assignment()))
            << "seed " << seed;
    }
}

// --------------------------------------------------------- shrinker

TEST(Shrink, VectorMinimizesAroundPredicate)
{
    std::vector<int> big(64, 0);
    big[41] = 42;
    auto shrunk = shrinkVector<int>(big, [](const std::vector<int> &v) {
        for (int x : v)
            if (x == 42)
                return true;
        return false;
    });
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk[0], 42);
}

TEST(Shrink, BrokenMsmVariantIsCaughtAndShrunk)
{
    using Cfg = ec::Bn254G1Cfg;
    // A deliberately broken variant: drops the last (point, scalar)
    // pair. NOT shipped -- it exists to prove the harness catches
    // off-by-one bugs and minimizes them.
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msm::msmNaive<Cfg>(in.points, in.scalars);
    });
    d.add("drops-last-pair", [](const MsmIn &in) {
        MsmIn t = in;
        if (!t.points.empty()) {
            t.points.pop_back();
            t.scalars.pop_back();
        }
        return msm::msmNaive<Cfg>(t.points, t.scalars);
    });

    FuzzTarget broken = row("msm");
    broken.run = [&d](std::uint64_t seed, std::size_t size,
                      ScalarMix mix, FuzzFailures &out) {
        fuzzMsmInstance(d, seed, size, mix, out);
    };
    FuzzReport rep;
    fuzzInstance(broken, /*seed=*/5, /*size=*/24, ScalarMix::Dense, rep);
    ASSERT_EQ(rep.failures.size(), 1u) << failureText(rep);
    EXPECT_EQ(rep.failures[0].target, "msm");
    EXPECT_EQ(rep.failures[0].repro, "--seed=5 --size=24 --kind=msm:dense");

    // The shrinker itself must land at <= 4 pairs (one nonzero term
    // is enough to expose a dropped pair).
    auto in = msmInstance<Cfg>(24, ScalarMix::Dense, 5);
    ASSERT_TRUE(d.run(in).has_value());
    auto shrunk = shrinkMsm<Cfg>(in, [&](const MsmIn &cand) {
        return d.run(cand).has_value();
    });
    EXPECT_LE(shrunk.size(), 4u);
    EXPECT_GE(shrunk.size(), 1u);
    EXPECT_TRUE(d.run(shrunk).has_value());
}

// --------------------------------------------- gpusim invariants

TEST(GpusimInvariants, CleanStatsPass)
{
    gpusim::KernelStats s;
    s.fieldMuls = 100;
    s.linesTouched = 10;
    s.usefulBytes = 320;
    auto dev = gpusim::DeviceConfig::v100();
    EXPECT_TRUE(gpusim::invariantViolations(s, dev).empty());
}

TEST(GpusimInvariants, ViolationsAreDetected)
{
    auto dev = gpusim::DeviceConfig::v100();

    gpusim::KernelStats bytes;
    bytes.linesTouched = 1;
    bytes.usefulBytes = 1000; // > 32 * 1
    auto v1 = gpusim::invariantViolations(bytes, dev);
    ASSERT_FALSE(v1.empty());
    EXPECT_NE(v1[0].find("usefulBytes"), std::string::npos);

    gpusim::KernelStats imb;
    imb.loadImbalanceFactor = 0.5;
    auto v2 = gpusim::invariantViolations(imb, dev);
    ASSERT_FALSE(v2.empty());
    EXPECT_NE(v2[0].find("loadImbalanceFactor"), std::string::npos);

    gpusim::KernelStats idle;
    idle.idleLaneFactor = 1.5;
    EXPECT_FALSE(gpusim::invariantViolations(idle, dev).empty());
    idle.idleLaneFactor = 0.0;
    EXPECT_FALSE(gpusim::invariantViolations(idle, dev).empty());

    gpusim::KernelStats orphan;
    orphan.usefulBytes = 8;
    orphan.linesTouched = 0;
    EXPECT_FALSE(gpusim::invariantViolations(orphan, dev).empty());
}

TEST(GpusimInvariants, StrictModeThrowsOnBadStats)
{
    auto dev = gpusim::DeviceConfig::v100();
    gpusim::KernelStats bad;
    bad.loadImbalanceFactor = 0.25;

    // The shared test main turns strict mode on for the whole suite.
    ASSERT_TRUE(gpusim::strictInvariants());
    EXPECT_THROW(gpusim::modelSeconds(bad, dev), std::logic_error);
    gpusim::KernelStats good;
    good.fieldMuls = 10;
    EXPECT_GE(gpusim::modelSeconds(good, dev), 0.0);

    // Lenient mode folds the violation into the modeled time.
    gpusim::setStrictInvariants(false);
    EXPECT_GT(gpusim::modelSeconds(bad, dev), 0.0);
    gpusim::setStrictInvariants(true);
}

// ----------------------------------------------------- fast smoke

TEST(FuzzSmoke, ShortRunFindsNoDivergence)
{
    FuzzOptions opt;
    opt.seed = 2;
    opt.iterations = 10;
    opt.maxMsmSize = 24;
    opt.targets = rowsWithoutProofs(); // proofs live in the slow sweep
    auto rep = fuzzAll(opt);
    EXPECT_EQ(rep.iterations, 10u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSmoke, TimeBoundStopsEarly)
{
    FuzzOptions opt;
    opt.seed = 3;
    opt.iterations = 1000000;
    opt.maxSeconds = 0.2;
    opt.maxMsmSize = 16;
    opt.targets = rowsWithoutProofs();
    auto rep = fuzzAll(opt);
    EXPECT_LT(rep.iterations, 1000000u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

// ------------------------------------------------------ target table

TEST(FuzzTable, KindsAreUniqueAndNotMixNames)
{
    std::set<std::string> kinds;
    for (const FuzzTarget &t : fuzzTargets()) {
        EXPECT_TRUE(kinds.insert(t.kind).second) << t.kind;
        EXPECT_THROW(scalarMixFromName(t.kind), std::invalid_argument)
            << t.kind;
        EXPECT_TRUE(t.run) << t.kind;
    }
}

/** Every row's repro line names that row, its mix and its size. */
TEST(FuzzTable, ReproResolvesToItsOwnRow)
{
    for (const FuzzTarget &t : fuzzTargets()) {
        std::string line = reproLine(t, 42, 3, ScalarMix::Boundary);
        SCOPED_TRACE(line);
        EXPECT_EQ(line.rfind("--seed=42 ", 0), 0u);
        EXPECT_EQ(line.find(" --size=3 ") != std::string::npos,
                  t.size != nullptr);
        std::size_t at = line.find("--kind=");
        ASSERT_NE(at, std::string::npos);
        auto k = resolveFuzzKind(line.substr(at + 7));
        ASSERT_TRUE(k.has_value());
        EXPECT_EQ(k->target, &t);
        if (t.mixed)
            EXPECT_EQ(k->mix, ScalarMix::Boundary);
        else
            EXPECT_FALSE(k->mix.has_value());
    }
}

TEST(FuzzTable, UnknownKindsAreRejected)
{
    EXPECT_FALSE(resolveFuzzKind("typo").has_value());
    EXPECT_FALSE(resolveFuzzKind("").has_value());
    EXPECT_FALSE(resolveFuzzKind("dense").has_value());
    EXPECT_FALSE(resolveFuzzKind("msm:typo").has_value());
    EXPECT_FALSE(resolveFuzzKind("fault:dense").has_value());
    auto k = resolveFuzzKind("batchaffine");
    ASSERT_TRUE(k.has_value());
    EXPECT_FALSE(k->mix.has_value());
}

/**
 * The replay rule: a row without a size dimension sweeps --size
 * consecutive seeds; a mixed row given no mix runs every mix once.
 */
TEST(FuzzTable, ReplayRunsSeedsOrMixes)
{
    std::vector<std::pair<std::uint64_t, ScalarMix>> seen;
    auto record = [&seen](std::uint64_t seed, std::size_t,
                          ScalarMix mix, FuzzFailures &) {
        seen.emplace_back(seed, mix);
    };
    FuzzTarget unsized{"unsized", 0, 0, 0, nullptr, false, record};
    auto rep = replayFuzzKind({&unsized, std::nullopt}, 900, 4);
    EXPECT_EQ(rep.iterations, 4u);
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0].first, 900u);
    EXPECT_EQ(seen[3].first, 903u);

    seen.clear();
    FuzzTarget mixed{"mixed", 0, 0, 0, detail::msmSize, true, record};
    rep = replayFuzzKind({&mixed, std::nullopt}, 700, 48);
    EXPECT_EQ(rep.iterations, kScalarMixCount);
    ASSERT_EQ(seen.size(), kScalarMixCount);
    for (std::size_t i = 0; i < kScalarMixCount; ++i)
        EXPECT_EQ(seen[i], std::make_pair(std::uint64_t(700), ScalarMix(i)));

    seen.clear();
    rep = replayFuzzKind({&mixed, ScalarMix::Sparse01}, 700, 48);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].second, ScalarMix::Sparse01);
}

// ------------------------------------------------- slow sweeps

TEST(FuzzSweep, MsmVariantsAllKindsAndEdgeSizes)
{
    FuzzReport rep;
    for (std::size_t k = 0; k < kScalarMixCount; ++k) {
        for (std::size_t n : {0, 1, 2, 3, 5, 16, 33}) {
            fuzzInstance(row("msm"), deriveSeed(11, k, n), n,
                         ScalarMix(k), rep);
        }
    }
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, NttVariantsAndRoundTrips)
{
    auto d = nttDifferential();
    auto rt = nttRoundTripDifferential();
    FuzzFailures out;
    for (std::size_t log_n = 1; log_n <= 7; ++log_n) {
        for (std::size_t k = 0; k < kScalarMixCount; ++k) {
            std::uint64_t s = deriveSeed(23, log_n, k);
            std::size_t n = std::size_t(1) << log_n;
            fuzzNttInstance(d, s, n, ScalarMix(k), false, out);
            fuzzNttInstance(d, s, n, ScalarMix(k), true, out);
            fuzzNttInstance(rt, s, n, ScalarMix(k), false, out);
        }
    }
    EXPECT_TRUE(out.empty()) << out.size() << " failure(s), e.g. "
                             << out[0];
}

TEST(FuzzSweep, Groth16EndToEndWithNegatives)
{
    FuzzReport rep;
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        fuzzInstance(row("groth16"), seed, 0, ScalarMix::Dense, rep);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, GpusimInvariantsHoldAcrossKernels)
{
    FuzzReport rep;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        fuzzInstance(row("gpusim"), seed, 1 + seed % 5,
                     ScalarMix(seed % kScalarMixCount), rep);
    }
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}

TEST(FuzzSweep, LongMixedRun)
{
    FuzzOptions opt;
    opt.seed = 1;
    opt.iterations = 60;
    opt.maxMsmSize = 32;
    // Groth16 at i = 7, 27, 47 and proof determinism at i = 23.
    for (FuzzTarget &t : opt.targets) {
        if (t.kind == "groth16")
            t.every = 20;
        if (t.kind == "proofdet")
            t.every = 40;
    }
    auto rep = fuzzAll(opt);
    EXPECT_EQ(rep.iterations, 60u);
    EXPECT_TRUE(rep.ok()) << failureText(rep);
}
