/**
 * @file
 * Tests for the deterministic parallel runtime (src/runtime/) and the
 * bit-reproducibility contract of every parallel consumer: the MSM
 * registry, the batched NTT, the Groth16 prover, and the gpusim
 * accounting helpers must produce byte-identical results at any
 * thread count (1, 2, 4, 8 here), including the degenerate n = 0,
 * n = 1, and all-zero-scalar instances.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "msm/msm_common.hh"
#include "ntt/ntt_batched.hh"
#include "ntt/ntt_cpu.hh"
#include "runtime/runtime.hh"
#include "status/status.hh"
#include "testkit/testkit.hh"
#include "zkp/serialize.hh"

using namespace gzkp;
using namespace gzkp::testkit;

namespace {

const std::vector<std::size_t> kThreadCounts = {1, 2, 4, 8};

/** Affine points must match in representation, not just value. */
template <typename Point>
void
expectSameAffine(const Point &a, const Point &b, const char *what)
{
    auto aa = a.toAffine();
    auto bb = b.toAffine();
    ASSERT_EQ(aa.infinity, bb.infinity) << what;
    if (aa.infinity)
        return;
    EXPECT_TRUE(aa.x == bb.x && aa.y == bb.y) << what;
}

} // namespace

// ---------------------------------------------------------- runtime

TEST(Runtime, ChunkBoundsPartitionTheRange)
{
    for (std::size_t n : {0u, 1u, 7u, 64u, 65u, 1000u}) {
        std::size_t chunks = runtime::chunkCount(n);
        EXPECT_LE(chunks, runtime::kMaxChunks);
        EXPECT_LE(chunks, n);
        std::size_t prev = 0;
        for (std::size_t j = 0; j < chunks; ++j) {
            auto [lo, hi] = runtime::chunkBounds(n, chunks, j);
            EXPECT_EQ(lo, prev);
            EXPECT_LE(lo, hi);
            prev = hi;
        }
        if (chunks != 0) {
            EXPECT_EQ(prev, n);
        }
    }
}

TEST(Runtime, ParallelForCoversEveryIndexOnce)
{
    for (std::size_t t : kThreadCounts) {
        for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 513u}) {
            std::vector<int> hits(n, 0);
            runtime::parallelFor(t, n, [&](std::size_t i) {
                ++hits[i]; // each index owned by exactly one chunk
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i], 1) << "n=" << n << " t=" << t;
        }
    }
}

TEST(Runtime, ParallelForChunksMatchesChunkBounds)
{
    std::size_t n = 321;
    std::size_t chunks = runtime::chunkCount(n);
    std::vector<std::pair<std::size_t, std::size_t>> seen(chunks);
    std::vector<int> count(chunks, 0);
    runtime::parallelForChunks(
        4, n, [&](std::size_t lo, std::size_t hi, std::size_t j) {
            seen[j] = {lo, hi};
            ++count[j];
        });
    for (std::size_t j = 0; j < chunks; ++j) {
        EXPECT_EQ(count[j], 1);
        EXPECT_EQ(seen[j], runtime::chunkBounds(n, chunks, j));
    }
}

TEST(Runtime, ReduceIsThreadCountInvariantForOrderSensitiveCombine)
{
    // The combine is deliberately non-commutative (a polynomial hash
    // over the partials): only a fixed fold order gives one answer.
    auto run = [](std::size_t threads) {
        return runtime::parallelReduce(
            threads, 1000, std::uint64_t(1),
            [](std::size_t lo, std::size_t hi) {
                std::uint64_t s = 0;
                for (std::size_t i = lo; i < hi; ++i)
                    s += i * i + 17;
                return s;
            },
            [](std::uint64_t acc, std::uint64_t part) {
                return acc * 1000003u + part;
            });
    };
    std::uint64_t base = run(1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(run(t), base) << "t=" << t;
}

TEST(Runtime, ReduceHandlesEmptyRange)
{
    auto r = runtime::parallelReduce(
        4, 0, 42,
        [](std::size_t, std::size_t) { return 1; },
        [](int acc, int part) { return acc + part; });
    EXPECT_EQ(r, 42);
}

TEST(Runtime, ParallelInvokeRunsEveryTaskWithAShare)
{
    std::vector<std::size_t> shares(5, 0);
    std::atomic<int> ran{0};
    std::vector<std::function<void(std::size_t)>> tasks;
    for (std::size_t j = 0; j < shares.size(); ++j) {
        tasks.push_back([&, j](std::size_t share) {
            shares[j] = share;
            ++ran;
        });
    }
    runtime::parallelInvoke(8, tasks);
    EXPECT_EQ(ran.load(), 5);
    for (auto s : shares)
        EXPECT_GE(s, 1u);
}

TEST(Runtime, ExceptionsPropagateDeterministically)
{
    for (std::size_t t : kThreadCounts) {
        EXPECT_THROW(
            runtime::parallelFor(t, 100,
                                 [&](std::size_t i) {
                                     if (i == 57)
                                         throw std::runtime_error("57");
                                 }),
            std::runtime_error)
            << "t=" << t;
    }
}

TEST(Runtime, ParseThreadsSpec)
{
    EXPECT_EQ(runtime::parseThreadsSpec(nullptr), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec(""), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("abc"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("0"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("-3"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("4x"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("100000"), 0u);
    EXPECT_EQ(runtime::parseThreadsSpec("1"), 1u);
    EXPECT_EQ(runtime::parseThreadsSpec("16"), 16u);
}

TEST(Runtime, ResolveThreadsUsesTheConfiguredDefault)
{
    runtime::setDefaultThreads(5);
    EXPECT_EQ(runtime::resolveThreads(0), 5u);
    EXPECT_EQ(runtime::resolveThreads(3), 3u);
    EXPECT_EQ(runtime::Config{}.resolved(), 5u);
    runtime::setDefaultThreads(0); // back to env/hardware default
    EXPECT_GE(runtime::resolveThreads(0), 1u);
}

// ----------------------------------------------------- parallel MSM

using MsmCfg = ec::Bn254G1Cfg;

TEST(ParallelMsm, RegistryMatchesOracleAtEveryThreadCount)
{
    const std::vector<std::size_t> sizes = {0, 1, 2, 7, 33};
    const std::vector<ScalarMix> mixes = {
        ScalarMix::Dense, ScalarMix::Sparse01, ScalarMix::Adversarial};
    for (std::size_t t : kThreadCounts) {
        auto d = msmDifferential(t);
        for (auto kind : mixes) {
            for (std::size_t n : sizes) {
                auto in = msmInstance<MsmCfg>(
                    n, kind, deriveSeed(11, n, std::size_t(kind)));
                auto div = d.run(in);
                EXPECT_FALSE(div.has_value())
                    << "t=" << t << " n=" << n << " variant "
                    << (div ? div->variant : "") << ": "
                    << (div ? div->detail : "");
            }
        }
    }
}

TEST(ParallelMsm, VariantsAreBitIdenticalAcrossThreadCounts)
{
    auto base = msmDifferential(1);
    auto names = base.variantNames();
    const std::vector<std::size_t> sizes = {0, 1, 2, 29, 65};
    for (std::size_t n : sizes) {
        auto in = msmInstance<MsmCfg>(n, ScalarMix::Adversarial,
                                      deriveSeed(23, n));
        for (const auto &name : names) {
            auto expect = base.runVariant(name, in);
            for (std::size_t t : {2, 4, 8}) {
                auto got = msmDifferential(t).runVariant(name, in);
                expectSameAffine(got, expect,
                                 (name + " n=" + std::to_string(n) +
                                  " t=" + std::to_string(t))
                                     .c_str());
            }
        }
    }
}

TEST(ParallelMsm, AllZeroScalarsGiveIdentityAtEveryThreadCount)
{
    auto in = msmInstance<MsmCfg>(40, ScalarMix::Dense, 7);
    for (auto &s : in.scalars)
        s = MsmCfg::Scalar::zero();
    auto d = msmDifferential(1);
    for (const auto &name : d.variantNames()) {
        for (std::size_t t : kThreadCounts) {
            auto r = msmDifferential(t).runVariant(name, in);
            EXPECT_TRUE(r.toAffine().infinity)
                << name << " t=" << t;
        }
    }
}

// ----------------------------------------------------- parallel NTT

using NttT = ff::Bn254Fr;

TEST(ParallelNtt, BatchedMatchesSerialKernelAtEveryThreadCount)
{
    ntt::Domain<NttT> dom(6);
    for (bool invert : {false, true}) {
        Rng rng(99);
        std::vector<std::vector<NttT>> batch(9);
        for (auto &v : batch)
            v = scalarVector<NttT>(dom.size(), ScalarMix::Boundary,
                                   rng);
        // Serial oracle: the kernel applied vector by vector.
        auto expect = batch;
        ntt::GzkpNtt<NttT> kernel;
        for (auto &v : expect)
            kernel.run(dom, v, invert);

        for (std::size_t t : kThreadCounts) {
            auto got = batch;
            ntt::BatchedNtt<NttT>(kernel, t).run(dom, got, invert);
            for (std::size_t b = 0; b < got.size(); ++b)
                EXPECT_EQ(got[b], expect[b])
                    << "lane " << b << " t=" << t
                    << (invert ? " inverse" : " forward");
        }
    }
}

TEST(ParallelNtt, EmptyAndSingletonBatches)
{
    ntt::Domain<NttT> dom(4);
    Rng rng(5);
    for (std::size_t t : kThreadCounts) {
        std::vector<std::vector<NttT>> empty;
        ntt::BatchedNtt<NttT>(ntt::GzkpNtt<NttT>(), t).run(dom, empty);
        EXPECT_TRUE(empty.empty());

        std::vector<std::vector<NttT>> one = {
            scalarVector<NttT>(dom.size(), ScalarMix::Dense, rng)};
        auto expect = one[0];
        ntt::nttInPlace(dom, expect);
        ntt::BatchedNtt<NttT>(ntt::GzkpNtt<NttT>(), t).run(dom, one);
        EXPECT_EQ(one[0], expect) << "t=" << t;
    }
}

// ------------------------------------------------- Groth16 determinism

TEST(ParallelGroth16, ProofBytesIdenticalAcrossThreadCounts)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(4242);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    Rng rng(deriveSeed(4242, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    for (std::size_t t : kThreadCounts) {
        Rng prng(deriveSeed(4242, 2));
        auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                                nullptr, zkp::CpuNttEngine<Fr>(), t);
        auto text = zkp::serializeProof<Family>(proof);
        if (t == 1)
            base = text;
        else
            EXPECT_EQ(text, base) << "proof bytes differ at t=" << t;
    }
    EXPECT_FALSE(base.empty());
}

TEST(ParallelGroth16, FuzzProofDeterminismTargetPasses)
{
    FuzzReport rep;
    fuzzInstance(*findFuzzTarget("proofdet"), 77, 0, ScalarMix::Dense,
                 rep);
    EXPECT_TRUE(rep.ok())
        << (rep.failures.empty() ? "" : rep.failures[0].detail);
}

// --------------------------------------------- stats thread-invariance

TEST(ParallelStats, BucketLoadHistogramIsThreadCountInvariant)
{
    Rng rng(31);
    auto scalars =
        scalarVector<NttT>(500, ScalarMix::LowHamming, rng);
    auto base = msm::bucketLoadHistogram(scalars, 8, 1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(msm::bucketLoadHistogram(scalars, 8, t), base)
            << "t=" << t;
}

TEST(ParallelStats, GpuStatsAreThreadCountInvariant)
{
    auto dev = gpusim::DeviceConfig::v100();
    auto in = msmInstance<MsmCfg>(300, ScalarMix::Sparse01, 13);

    auto stats = [&](std::size_t t) {
        typename msm::GzkpMsm<MsmCfg>::Options o;
        o.threads = t;
        return msm::GzkpMsm<MsmCfg>(o, dev).gpuStats(in.scalars.size(),
                                                     dev, &in.scalars);
    };
    auto base = stats(1);
    for (std::size_t t : kThreadCounts) {
        auto st = stats(t);
        EXPECT_EQ(st.fieldMuls, base.fieldMuls) << "t=" << t;
        EXPECT_EQ(st.fieldAdds, base.fieldAdds) << "t=" << t;
        EXPECT_EQ(st.usefulBytes, base.usefulBytes) << "t=" << t;
        EXPECT_EQ(st.linesTouched, base.linesTouched) << "t=" << t;
        EXPECT_EQ(st.loadImbalanceFactor, base.loadImbalanceFactor)
            << "t=" << t;
    }

    auto bell = [&](std::size_t t) {
        return msm::BellpersonMsm<MsmCfg>(9, 3, t).gpuStats(
            in.scalars.size(), dev, &in.scalars);
    };
    auto bbase = bell(1);
    for (std::size_t t : kThreadCounts)
        EXPECT_EQ(bell(t).loadImbalanceFactor,
                  bbase.loadImbalanceFactor)
            << "t=" << t;
}

// --------------------------------------- cancellation and deadlines

TEST(RuntimeCancel, CancelledTokenAbortsParallelForEarly)
{
    runtime::CancelToken tok;
    tok.cancel();
    runtime::CancelScope scope(&tok);
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(runtime::parallelFor(4, 10000,
                                      [&](std::size_t) { ++visited; }),
                 runtime::CancelledError);
    // The region is aborted between chunks, not run to completion.
    EXPECT_LT(visited.load(), 10000u);
}

TEST(RuntimeCancel, MidFlightCancelStopsWorkers)
{
    runtime::CancelToken tok;
    runtime::CancelScope scope(&tok);
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(
        runtime::parallelFor(4, 1u << 20,
                             [&](std::size_t) {
                                 if (++visited == 100)
                                     tok.cancel();
                             }),
        runtime::CancelledError);
    EXPECT_GE(visited.load(), 100u);
    EXPECT_LT(visited.load(), 1u << 20);
}

TEST(RuntimeCancel, ExpiredDeadlineThrowsDeadlineExceeded)
{
    runtime::CancelToken tok;
    tok.setTimeout(std::chrono::milliseconds(-1));
    runtime::CancelScope scope(&tok);
    EXPECT_TRUE(tok.expired());
    EXPECT_THROW(runtime::parallelFor(2, 64, [](std::size_t) {}),
                 runtime::DeadlineExceededError);
}

TEST(RuntimeCancel, StatusGuardMapsCancellationToTypedCodes)
{
    runtime::CancelToken tok;
    tok.cancel();
    runtime::CancelScope scope(&tok);
    Status s = statusGuardVoid("region", [&] {
        runtime::parallelFor(2, 64, [](std::size_t) {});
    });
    EXPECT_EQ(s.code(), StatusCode::kCancelled);

    runtime::CancelToken dl;
    dl.setTimeout(std::chrono::milliseconds(-1));
    runtime::CancelScope scope2(&dl);
    Status s2 = statusGuardVoid("region", [&] {
        runtime::parallelFor(2, 64, [](std::size_t) {});
    });
    EXPECT_EQ(s2.code(), StatusCode::kDeadlineExceeded);
}

TEST(RuntimeCancel, WorkersInheritTheCallersToken)
{
    // parallelInvoke re-installs the ambient token on its workers, so
    // a nested parallelFor inside a task still observes cancellation.
    runtime::CancelToken tok;
    runtime::CancelScope scope(&tok);
    std::vector<std::function<void(std::size_t)>> tasks;
    std::atomic<bool> sawCancel{false};
    for (int j = 0; j < 4; ++j) {
        tasks.push_back([&](std::size_t) {
            tok.cancel();
            try {
                runtime::parallelFor(2, 256, [](std::size_t) {});
            } catch (const runtime::CancelledError &) {
                sawCancel = true;
                throw;
            }
        });
    }
    EXPECT_THROW(runtime::parallelInvoke(4, tasks),
                 runtime::CancelledError);
    EXPECT_TRUE(sawCancel.load());
}

TEST(RuntimeCancel, NoTokenMeansNoOverheadOrThrow)
{
    EXPECT_EQ(runtime::currentCancelToken(), nullptr);
    std::atomic<std::size_t> visited{0};
    runtime::parallelFor(4, 1000, [&](std::size_t) { ++visited; });
    EXPECT_EQ(visited.load(), 1000u);
}
