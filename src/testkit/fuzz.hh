/**
 * @file
 * The deterministic differential-fuzzing loop.
 *
 * Every fuzz target is one row of fuzzTargets(): kind name, cadence
 * in the mixed sweep, seed salt, size rule, and run(seed, size, mix,
 * failures). The oracles behind the rows:
 *
 *  - msm, batchaffine: every MSM engine (serial Pippenger, Straus,
 *    bellperson-like, GZKP in both checkpoint modes, each accumulator
 *    and GLV setting) against the naive PMUL-sum, on BN254 G1;
 *  - ntt, ntt-roundtrip: shuffled (BG-like), GZKP shuffle-less and
 *    batched NTTs against the canonical radix-2 flow, and
 *    forward/inverse pairs against the identity;
 *  - gpusim: the accounting invariants of every variant's KernelStats,
 *    so the perf model is fuzzed as a checked contract too;
 *  - groth16, proofdet: end-to-end prove/verify with negative
 *    soundness checks, and identical proof bytes at threads 1/2/4/8;
 *  - fault, service-fault, overload-fault, device-fault, workload: a
 *    seeded chaos plan (testkit/chaos.hh) or a random Poseidon Merkle
 *    circuit through the self-checking prover or a whole ProofService;
 *    every run ends in a verifying proof or a typed Status;
 *  - ffdispatch: random field-op programs under every compiled SIMD
 *    arm, limb-identical to the portable arm.
 *
 * The sweep, the replay, `--only` and the repro line are written once
 * against the table, so a failure's repro line (--seed=S [--size=N]
 * --kind=K[:mix]) replays exactly the row and instance that failed.
 */

#ifndef GZKP_TESTKIT_FUZZ_HH
#define GZKP_TESTKIT_FUZZ_HH

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ec/curves.hh"
#include "ff/simd/dispatch.hh"
#include "faultsim/faultsim.hh"
#include "msm/msm_bellperson.hh"
#include "msm/msm_gzkp.hh"
#include "msm/msm_serial.hh"
#include "msm/msm_straus.hh"
#include "ntt/ntt_batched.hh"
#include "ntt/ntt_cpu.hh"
#include "ntt/ntt_gpu.hh"
#include "testkit/chaos.hh"
#include "testkit/differential.hh"
#include "testkit/generators.hh"
#include "testkit/shrink.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace gzkp::testkit {

/** What one fuzz instance found wrong; empty = it passed. */
using FuzzFailures = std::vector<std::string>;

struct FuzzFailure {
    std::string target; //!< the row's kind
    std::string repro;  //!< replayable CLI fragment
    std::string detail; //!< variant + shrunk-instance description
};

struct FuzzReport {
    std::uint64_t iterations = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
};

// ---------------------------------------------------------------- MSM

using MsmCfg = ec::Bn254G1Cfg;
using MsmIn = MsmInstance<MsmCfg>;
using MsmOut = ec::ECPoint<MsmCfg>;
using MsmDifferential = Differential<MsmIn, MsmOut>;

namespace detail {

/** A GZKP MSM variant at window k = 8 and checkpoint interval m. */
inline std::function<MsmOut(const MsmIn &)>
gzkpVariant(std::size_t threads, std::size_t m,
            msm::CheckpointMode mode = msm::CheckpointMode::Horner,
            msm::Accumulator acc = msm::Accumulator::Auto,
            msm::GlvMode glv = msm::GlvMode::Auto)
{
    typename msm::GzkpMsm<MsmCfg>::Options o;
    o.k = 8;
    o.checkpointM = m;
    o.mode = mode;
    o.threads = threads;
    o.accumulator = acc;
    o.glv = glv;
    return [o](const MsmIn &in) {
        return msm::GzkpMsm<MsmCfg>(o).run(in.points, in.scalars);
    };
}

} // namespace detail

/**
 * The full MSM registry: every production variant against the naive
 * oracle. New implementations register here once and are covered by
 * the unit sweep, the fuzz driver, and CI alike. `threads` is the
 * runtime thread count every variant is constructed with (0 = the
 * GZKP_THREADS default) -- the cross-thread-count differential tests
 * instantiate the registry at several counts and expect identical
 * results from each.
 */
inline MsmDifferential
msmDifferential(std::size_t threads = 0)
{
    using namespace gzkp::msm;
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msmNaive<MsmCfg>(in.points, in.scalars);
    });
    d.add("pippenger-serial", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(0, threads)
            .run(in.points, in.scalars);
    });
    // The Accumulator/GlvMode defaults resolve to the batch-affine +
    // GLV hot path, so the Auto entries above exercise the new code;
    // this pins the original Jacobian/no-GLV path so both strategies
    // stay under differential coverage regardless of the defaults.
    d.add("pippenger-serial-jacobian", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(0, threads,
                                       Accumulator::Jacobian,
                                       GlvMode::Off)
            .run(in.points, in.scalars);
    });
    d.add("pippenger-serial-k13", [threads](const MsmIn &in) {
        return PippengerSerial<MsmCfg>(13, threads)
            .run(in.points, in.scalars);
    });
    d.add("straus-k4", [](const MsmIn &in) {
        return StrausMsm<MsmCfg>(4).run(in.points, in.scalars);
    });
    d.add("bellperson-k9-s3", [threads](const MsmIn &in) {
        return BellpersonMsm<MsmCfg>(9, 3, threads)
            .run(in.points, in.scalars);
    });
    d.add("gzkp-horner-m2", detail::gzkpVariant(threads, 2));
    d.add("gzkp-horner-m2-jacobian",
          detail::gzkpVariant(threads, 2, CheckpointMode::Horner,
                              Accumulator::Jacobian, GlvMode::Off));
    d.add("gzkp-horner-m5", detail::gzkpVariant(threads, 5));
    d.add("gzkp-perpoint-m3",
          detail::gzkpVariant(threads, 3, CheckpointMode::PerPoint));
    return d;
}

/**
 * The batch-affine / GLV cross-product registry: every engine at
 * every (accumulator, glv) combination it supports, against the
 * naive oracle -- the focused differential for the CPU hot path.
 * Broader than the entries in msmDifferential() (which keep the fuzz
 * loop's per-iteration cost bounded); run by the dedicated unit
 * tests, the batchaffine fuzz target, and CI sanitizer tiers.
 */
inline MsmDifferential
batchAffineDifferential(std::size_t threads = 0)
{
    using namespace gzkp::msm;
    MsmDifferential d("naive", [](const MsmIn &in) {
        return msmNaive<MsmCfg>(in.points, in.scalars);
    });
    struct Combo {
        const char *tag;
        Accumulator acc;
        GlvMode glv;
    };
    static constexpr Combo kCombos[] = {
        {"jac-noglv", Accumulator::Jacobian, GlvMode::Off},
        {"ba-noglv", Accumulator::BatchAffine, GlvMode::Off},
        {"jac-glv", Accumulator::Jacobian, GlvMode::On},
        {"ba-glv", Accumulator::BatchAffine, GlvMode::On},
    };
    for (const Combo &c : kCombos) {
        d.add(std::string("serial-") + c.tag,
              [threads, c](const MsmIn &in) {
                  return PippengerSerial<MsmCfg>(0, threads, c.acc,
                                                 c.glv)
                      .run(in.points, in.scalars);
              });
        d.add(std::string("gzkp-horner-m2-") + c.tag,
              detail::gzkpVariant(threads, 2, CheckpointMode::Horner,
                                  c.acc, c.glv));
    }
    d.add("bellperson-jac", [threads](const MsmIn &in) {
        return BellpersonMsm<MsmCfg>(9, 3, threads)
            .run(in.points, in.scalars);
    });
    return d;
}

/**
 * Run one MSM differential + shrink-on-failure. Exposed so tests can
 * replay specific instances and inject broken variants (pass a
 * custom differential).
 */
inline void
fuzzMsmInstance(const MsmDifferential &d, std::uint64_t seed,
                std::size_t size, ScalarMix kind, FuzzFailures &out)
{
    auto in = msmInstance<MsmCfg>(size, kind, seed);
    auto div = d.run(in);
    if (!div)
        return;
    auto shrunk = shrinkMsm<MsmCfg>(
        in, [&](const MsmIn &cand) { return d.run(cand).has_value(); });
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail << "; shrunk to n="
           << shrunk.size();
    out.push_back(detail.str());
}

// ---------------------------------------------------------------- NTT

using NttFr = ff::Bn254Fr;

/** Largest NTT domain (log2) the mixed sweep draws. */
inline constexpr std::size_t kMaxNttLog = 7;

struct NttInput {
    std::size_t logN = 0;
    bool invert = false;
    std::vector<NttFr> data;
};

using NttDifferential = Differential<NttInput, std::vector<NttFr>>;

/**
 * NTT registry: GPU-model variants vs the canonical radix-2 flow.
 * `threads` parameterizes the batched variant's runtime threads.
 */
inline NttDifferential
nttDifferential(std::size_t threads = 0)
{
    using namespace gzkp::ntt;
    NttDifferential d("ntt-cpu", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        nttInPlace(dom, a, in.invert);
        return a;
    });
    d.add("shuffled-bg", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, in.invert);
        return a;
    });
    d.add("gzkp", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>().run(dom, a, in.invert);
        return a;
    });
    d.add("gzkp-b3-g2", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>(3, 2).run(dom, a, in.invert);
        return a;
    });
    d.add("batched", [threads](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        std::vector<std::vector<NttFr>> batch = {in.data, in.data,
                                                 in.data};
        BatchedNtt<NttFr>(ntt::GzkpNtt<NttFr>(), threads)
            .run(dom, batch, in.invert);
        if (!(batch[0] == batch[1]) || !(batch[0] == batch[2]))
            throw std::logic_error("batch lanes disagree");
        return batch[0];
    });
    return d;
}

/** Round-trip registry: forward-then-inverse against the identity. */
inline NttDifferential
nttRoundTripDifferential()
{
    using namespace gzkp::ntt;
    NttDifferential d("identity",
                      [](const NttInput &in) { return in.data; });
    d.add("cpu-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        nttInPlace(dom, a, false);
        nttInPlace(dom, a, true);
        return a;
    });
    d.add("gzkp-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        GzkpNtt<NttFr>().run(dom, a, false);
        GzkpNtt<NttFr>().run(dom, a, true);
        return a;
    });
    d.add("shuffled-roundtrip", [](const NttInput &in) {
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, false);
        ShuffledNtt<NttFr>().run(dom, a, true);
        return a;
    });
    d.add("mixed-roundtrip", [](const NttInput &in) {
        // Forward on one variant, inverse on another: catches
        // matched-pair bugs that cancel within one implementation.
        Domain<NttFr> dom(in.logN);
        auto a = in.data;
        ShuffledNtt<NttFr>().run(dom, a, false);
        GzkpNtt<NttFr>().run(dom, a, true);
        return a;
    });
    return d;
}

/** One NTT differential on the smallest domain (>= 2) of n points. */
inline void
fuzzNttInstance(const NttDifferential &d, std::uint64_t seed,
                std::size_t n, ScalarMix kind, bool invert,
                FuzzFailures &out)
{
    Rng rng(seed);
    std::size_t log_n = std::bit_width(std::max<std::size_t>(n, 2) - 1);
    NttInput in{log_n, invert,
                scalarVector<NttFr>(std::size_t(1) << log_n, kind, rng)};
    auto div = d.run(in);
    if (!div)
        return;
    // Shrink: halve the domain while the divergence persists, then
    // zero out data entries (keeping the power-of-two length).
    auto fails = [&](const NttInput &cand) {
        return d.run(cand).has_value();
    };
    while (in.logN > 1) {
        NttInput half = in;
        half.logN = in.logN - 1;
        half.data.assign(in.data.begin(),
                         in.data.begin() + (in.data.size() / 2));
        if (!fails(half))
            break;
        in = std::move(half);
    }
    for (auto &x : in.data) {
        if (x.isZero())
            continue;
        NttInput cand = in;
        cand.data[&x - in.data.data()] = NttFr::zero();
        if (fails(cand))
            in = std::move(cand);
    }
    std::ostringstream detail;
    detail << div->variant << ": " << div->detail
           << "; shrunk to 2^" << in.logN
           << (in.invert ? " (inverse)" : " (forward)");
    out.push_back(detail.str());
}

// ------------------------------------------------------------ Groth16

/**
 * One end-to-end Groth16 iteration on a random circuit: the honest
 * proof must pass both verifiers; a proof from a mutated witness and
 * a tampered honest proof must both be rejected; serialization must
 * round-trip.
 */
inline void
fuzzGroth16(std::uint64_t seed, std::size_t, ScalarMix,
            FuzzFailures &out)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(seed);
    if (!b.cs().isSatisfied(b.assignment())) {
        out.push_back("generated circuit is unsatisfied (generator bug)");
        return;
    }

    Rng rng(deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);
    typename G16::ProofAux aux;
    auto proof =
        G16::prove(keys.pk, b.cs(), b.assignment(), rng, &aux);
    std::vector<Fr> pub(b.assignment().begin() + 1,
                        b.assignment().begin() + 1 +
                            b.cs().numPublic());

    if (!G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(), proof,
                                 aux))
        out.push_back("honest proof rejected by trapdoor verifier");
    if (!zkp::verifyBn254(keys.vk, proof, pub))
        out.push_back("honest proof rejected by pairing verifier");

    // Negative: prove with a mutated witness (no longer satisfying).
    auto z_bad = b.assignment();
    if (z_bad.size() > b.cs().numPublic() + 1) {
        std::size_t idx = b.cs().numPublic() + 1 +
            rng() % (z_bad.size() - b.cs().numPublic() - 1);
        z_bad[idx] += Fr::one() + Fr::fromUint64(rng() % 5);
        if (!b.cs().isSatisfied(z_bad)) {
            auto bad =
                G16::prove(keys.pk, b.cs(), z_bad, rng, nullptr);
            if (zkp::verifyBn254(keys.vk, bad, pub))
                out.push_back("mutated-witness proof accepted by verifier");
        }
    }

    // Negative: tamper with each proof point in turn.
    using G1 = typename G16::G1;
    using G2 = typename G16::G2;
    auto t1 = proof;
    t1.a = (G1::fromAffine(t1.a) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t1, pub))
        out.push_back("proof with tampered A accepted");
    auto t2 = proof;
    t2.b = (G2::fromAffine(t2.b) + G2::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t2, pub))
        out.push_back("proof with tampered B accepted");
    auto t3 = proof;
    t3.c = (G1::fromAffine(t3.c) + G1::generator()).toAffine();
    if (zkp::verifyBn254(keys.vk, t3, pub))
        out.push_back("proof with tampered C accepted");

    // Serialization round-trip preserves validity.
    auto text = zkp::serializeProof<Family>(proof);
    auto back = zkp::deserializeProof<Family>(text);
    if (!(back.a == proof.a && back.b == proof.b &&
          back.c == proof.c))
        out.push_back("proof serialization round-trip changed the proof");
}

/**
 * Cross-thread-count proof determinism: one circuit, one setup, one
 * prover-randomness stream -- the serialized proof bytes must be
 * identical at every runtime thread count. This is the end-to-end
 * check of the runtime's bit-reproducibility contract: a divergence
 * anywhere in the parallel NTT/MSM stack changes the proof points.
 */
inline void
fuzzProofDeterminism(std::uint64_t seed, std::size_t, ScalarMix,
                     FuzzFailures &out)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    auto b = randomCircuit<Fr>(seed);
    Rng rng(deriveSeed(seed, 1));
    auto keys = G16::setup(b.cs(), rng);

    std::string base;
    for (std::size_t t : {1, 2, 4, 8}) {
        // Fresh, identically-seeded randomness per thread count so r/s
        // match and only the parallel schedule differs.
        Rng prng(deriveSeed(seed, 2));
        auto proof = G16::prove(keys.pk, b.cs(), b.assignment(), prng,
                                nullptr, zkp::CpuNttEngine<Fr>(), t);
        auto text = zkp::serializeProof<Family>(proof);
        if (t == 1) {
            base = text;
        } else if (text != base) {
            out.push_back("proof bytes diverge between threads=1 and "
                          "threads=" + std::to_string(t));
            return;
        }
    }
}

// -------------------------------------------------------------- chaos

/**
 * One prover chaos iteration: generate the prover sweep's plan for
 * this seed, run the self-checking prover under it, and assert the
 * chaos invariant -- the run ends in a verifying proof or a typed
 * error, and the pipeline never releases a proof the verifier
 * rejects.
 */
inline void
fuzzFault(std::uint64_t seed, std::size_t, ScalarMix, FuzzFailures &out)
{
    auto plan = randomPlan(proverPlans(), seed);
    auto res = runChaosPlan(plan, seed);
    if (!res.clean())
        out.push_back("plan \"" + plan.toString() + "\": " +
                      (res.releasedBadProof
                           ? "pipeline released a non-verifying proof"
                           : "neither a verifying proof nor a typed "
                             "error: " + res.status.toString()));
}

/** The chaos invariant over one service run's outcome. */
inline void
checkServiceChaos(const faultsim::FaultPlan &plan,
                  const ServiceChaosOutcome &res, FuzzFailures &out)
{
    if (!res.clean())
        out.push_back("plan \"" + plan.toString() + "\": " +
                      (res.releasedBadProof ? "released a bad proof"
                                            : "broke byte identity"));
}

// ----------------------------------------------------------- workload

/**
 * One realistic-workload iteration: a random N-ary Poseidon Merkle
 * shape (depth, arity, leaf index) with sibling material drawn from a
 * random scalar regime, proved through the self-checking pipeline.
 * The invariant is the chaos one: the run ends in a verifying proof
 * or a clean typed error -- never a bad proof, never an untyped
 * exception.
 */
inline void
fuzzWorkload(std::uint64_t seed, std::size_t, ScalarMix,
             FuzzFailures &out)
{
    using Family = zkp::Bn254Family;
    using G16 = zkp::Groth16<Family>;
    using Fr = ff::Bn254Fr;

    Rng rng(deriveSeed(seed, 1));
    workload::MerkleShape shape;
    shape.depth = 1 + rng() % 3;
    shape.arity = 2 + rng() % 3;
    std::uint64_t span = 1;
    for (std::size_t i = 0; i < shape.depth; ++i)
        span *= shape.arity;
    shape.leafIndex = rng() % span;
    ScalarMix regime = ScalarMix(rng() % kScalarMixCount);

    auto fail = [&](const std::string &what) {
        std::ostringstream detail;
        detail << what << " (depth=" << shape.depth << " arity="
               << shape.arity << " leaf=" << shape.leafIndex
               << " regime=" << name(regime) << ")";
        out.push_back(detail.str());
    };

    try {
        auto material = scalarVector<Fr>(
            shape.depth * (shape.arity - 1), regime, rng);
        Fr leaf = biasedField<Fr>(rng);
        auto b = workload::makePoseidonMerkleCircuit<Fr>(shape, leaf,
                                                         material);
        if (!b.cs().isSatisfied(b.assignment())) {
            fail("generated circuit is unsatisfied (builder bug)");
            return;
        }
        Rng srng(deriveSeed(seed, 2));
        auto keys = G16::setup(b.cs(), srng);
        auto prover = zkp::makeBn254SelfCheckingProver();
        Rng prng(deriveSeed(seed, 3));
        auto r = prover.prove(keys.pk, keys.vk, b.cs(),
                              b.assignment(), prng);
        if (r.isOk()) {
            std::vector<Fr> pub(
                b.assignment().begin() + 1,
                b.assignment().begin() + 1 + b.cs().numPublic());
            if (!zkp::verifyBn254(keys.vk, *r, pub))
                fail("pipeline released a non-verifying proof");
        }
        // A typed Status is the clean-error arm of the invariant.
    } catch (const std::exception &e) {
        fail(std::string("untyped exception: ") + e.what());
    }
}

// --------------------------------------------------------- ffdispatch

/**
 * A random field-op program over two state vectors `a` and `b`: each
 * op code maps to one batch entry point of ff/fp.hh. Replaying the
 * same program under every compiled ISA arm must produce limb-
 * identical state -- every arm returns canonical fully-reduced
 * Montgomery values, so any divergence is an arm bug, not a
 * representation choice.
 */
struct FfDispatchProgram {
    std::vector<ff::Bn254Fr> init; //!< initial state
    std::vector<std::uint8_t> ops; //!< op codes, see runFfDispatch
};

inline FfDispatchProgram
ffDispatchProgram(std::size_t size, std::uint64_t seed)
{
    Rng rng(seed);
    FfDispatchProgram p;
    std::size_t n = std::max<std::size_t>(size, 1);
    ScalarMix mix = ScalarMix(rng() % kScalarMixCount);
    p.init = scalarVector<ff::Bn254Fr>(n, mix, rng);
    p.ops.resize(2 + rng() % 14);
    for (auto &op : p.ops)
        op = std::uint8_t(rng() % 7);
    return p;
}

/** Replay a program under the currently active ISA arm. */
inline std::vector<ff::Bn254Fr>
runFfDispatch(const FfDispatchProgram &p)
{
    using Fr = ff::Bn254Fr;
    const std::size_t n = p.init.size();
    std::vector<Fr> a = p.init;
    std::vector<Fr> b(p.init.rbegin(), p.init.rend());
    static const ff::BigInt<2> kExp =
        ff::BigInt<2>::fromHex("1f3a9c0d5b");
    for (std::uint8_t op : p.ops) {
        switch (op % 7) {
        case 0:
            ff::mulBatch(a.data(), a.data(), b.data(), n);
            break;
        case 1:
            ff::sqrBatch(b.data(), a.data(), n);
            break;
        case 2:
            ff::mulcBatch(a.data(), b.data(), b[n / 2], n);
            break;
        case 3:
            ff::addBatch(b.data(), b.data(), a.data(), n);
            break;
        case 4:
            ff::subBatch(a.data(), a.data(), b.data(), n);
            break;
        case 5:
            ff::batchInverse(a);
            break;
        case 6:
            ff::powBatch(b.data(), b.data(), kExp, n);
            break;
        }
    }
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

namespace detail {

/** RAII pin of the active field-kernel ISA. */
struct ScopedIsa {
    explicit ScopedIsa(ff::simd::Isa isa)
    {
        ff::simd::setActiveIsa(isa);
    }
    ~ScopedIsa() { ff::simd::clearActiveIsa(); }
};

} // namespace detail

/**
 * One cross-ISA differential: run the program under the portable arm,
 * then under every other arm this host supports, and compare limbs.
 * On divergence the program is greedily shrunk (drop ops, then halve
 * the state).
 */
inline void
fuzzFfDispatch(std::uint64_t seed, std::size_t size, ScalarMix,
               FuzzFailures &out)
{
    namespace simd = ff::simd;
    auto p = ffDispatchProgram(size, seed);

    auto diverges = [](const FfDispatchProgram &prog)
        -> std::optional<std::string> {
        std::vector<ff::Bn254Fr> ref;
        {
            detail::ScopedIsa g(simd::Isa::Portable);
            ref = runFfDispatch(prog);
        }
        for (simd::Isa isa : simd::supportedIsas()) {
            if (isa == simd::Isa::Portable)
                continue;
            detail::ScopedIsa g(isa);
            auto got = runFfDispatch(prog);
            for (std::size_t i = 0; i < ref.size(); ++i) {
                if (!(got[i] == ref[i])) {
                    std::ostringstream os;
                    os << simd::name(isa)
                       << " diverges from portable at element " << i;
                    return os.str();
                }
            }
        }
        return std::nullopt;
    };

    if (!diverges(p))
        return;
    // Greedy shrink: drop ops one at a time, then halve the state
    // vector, for as long as the divergence persists.
    for (std::size_t i = 0; i < p.ops.size();) {
        FfDispatchProgram cand = p;
        cand.ops.erase(cand.ops.begin() + i);
        if (diverges(cand))
            p = std::move(cand);
        else
            ++i;
    }
    while (p.init.size() > 1) {
        FfDispatchProgram cand = p;
        cand.init.resize(p.init.size() / 2);
        if (!diverges(cand))
            break;
        p = std::move(cand);
    }
    auto msg = diverges(p);
    std::ostringstream detail;
    detail << (msg ? *msg : std::string("divergence")) << "; shrunk to n="
           << p.init.size() << ", " << p.ops.size() << " op(s)";
    out.push_back(detail.str());
}

// ------------------------------------------------------------- gpusim

/**
 * Assert the accounting invariants of every variant's KernelStats on
 * 64 * size scalars from this instance's mix.
 */
inline void
fuzzGpusim(std::uint64_t seed, std::size_t size, ScalarMix kind,
           FuzzFailures &out)
{
    using namespace gzkp::msm;
    using Fr = ff::Bn254Fr;
    auto dev = gpusim::DeviceConfig::v100();
    Rng rng(deriveSeed(seed, 3));
    std::size_t n = std::max<std::size_t>(size, 1) * 64;
    auto scalars = scalarVector<Fr>(n, kind, rng);

    auto check = [&](const char *which,
                     const gpusim::KernelStats &st) {
        for (const auto &v : gpusim::invariantViolations(st, dev))
            out.push_back(std::string(which) + ": " + v);
    };

    GzkpMsm<MsmCfg>::Options lb, no_lb;
    no_lb.loadBalance = false;
    check("gzkp-msm", GzkpMsm<MsmCfg>(lb, dev).gpuStats(n, dev,
                                                        &scalars));
    check("gzkp-msm-no-lb",
          GzkpMsm<MsmCfg>(no_lb, dev).gpuStats(n, dev, &scalars));
    check("bellperson-msm",
          BellpersonMsm<MsmCfg>().gpuStats(n, dev, &scalars));
    check("straus-msm", StrausMsm<MsmCfg>().gpuStats(n, dev));

    std::size_t log_n = 10 + rng() % 11; // 2^10 .. 2^20 (model only)
    auto sh = ntt::ShuffledNtt<Fr>().stats(log_n, dev);
    check("ntt-shuffled-bitrev", sh.bitrev);
    check("ntt-shuffled-shuffle", sh.shuffle);
    check("ntt-shuffled-compute", sh.compute);
    check("ntt-shuffled-total", sh.total());
    auto gz = ntt::GzkpNtt<Fr>().stats(log_n, dev);
    check("ntt-gzkp-compute", gz.compute);
    check("ntt-gzkp-total", gz.total());
}

// -------------------------------------------------------------- table

/** One fuzz target. */
struct FuzzTarget {
    std::string kind; //!< --kind / --only name
    /** Cadence in the mixed sweep: iterations with i % every ==
        offset; every == 0 keeps the row out of the sweep. */
    std::uint64_t every = 0;
    std::uint64_t offset = 0;
    std::uint64_t salt = 0; //!< instance seed = deriveSeed(seed, i, salt)
    /** Instance size at sweep iteration i; null: no size dimension
        (replay sweeps seeds instead). */
    std::size_t (*size)(std::uint64_t seed, std::uint64_t i,
                        std::size_t max_msm_size) = nullptr;
    bool mixed = false; //!< run() reads the scalar mix
    /** One instance: append one line per failure to `out`. */
    std::function<void(std::uint64_t seed, std::size_t size,
                       ScalarMix mix, FuzzFailures &out)>
        run;
};

namespace detail {

/** MSM size skewed toward small instances (where edge cases live). */
inline std::size_t
msmSize(std::uint64_t s, std::uint64_t i, std::size_t max_size)
{
    std::uint64_t r = deriveSeed(s, i, 1);
    if (r % 16 == 0)
        return 0;
    if (r % 16 < 6)
        return 1 + (r >> 8) % 4;
    return 1 + (r >> 8) % std::max<std::size_t>(1, max_size);
}

inline std::size_t
nttSize(std::uint64_t s, std::uint64_t i, std::size_t)
{
    return std::size_t(2) << (deriveSeed(s, i, 4) % kMaxNttLog);
}

} // namespace detail

/**
 * Every fuzz target, in the order the mixed sweep runs them within an
 * iteration. Sizes are MSM pairs (msm, batchaffine), 64-scalar blocks
 * (gpusim), NTT points (ntt, ntt-roundtrip) and state width
 * (ffdispatch).
 */
inline const std::vector<FuzzTarget> &
fuzzTargets()
{
    using detail::msmSize;
    using detail::nttSize;
    static const std::vector<FuzzTarget> rows = {
        {"msm", 1, 0, 2, msmSize, true,
         [](std::uint64_t seed, std::size_t size, ScalarMix mix,
            FuzzFailures &out) {
             static const MsmDifferential d = msmDifferential();
             fuzzMsmInstance(d, seed, size, mix, out);
         }},
        {"gpusim", 8, 1, 3,
         [](std::uint64_t s, std::uint64_t i, std::size_t max) {
             return 1 + msmSize(s, i, max) / 4;
         },
         true, fuzzGpusim},
        // The 10-variant cross-product is pricey; sample sparsely.
        {"batchaffine", 16, 5, 9, msmSize, true,
         [](std::uint64_t seed, std::size_t size, ScalarMix mix,
            FuzzFailures &out) {
             static const MsmDifferential d = batchAffineDifferential();
             fuzzMsmInstance(d, seed, size, mix, out);
         }},
        {"ntt", 2, 0, 4, nttSize, true,
         [](std::uint64_t seed, std::size_t n, ScalarMix mix,
            FuzzFailures &out) {
             static const NttDifferential d = nttDifferential();
             fuzzNttInstance(d, seed, n, mix, (seed >> 32) & 1, out);
         }},
        {"ntt-roundtrip", 4, 0, 5,
         [](std::uint64_t s, std::uint64_t i, std::size_t max) {
             return std::min<std::size_t>(nttSize(s, i, max), 64);
         },
         true,
         [](std::uint64_t seed, std::size_t n, ScalarMix mix,
            FuzzFailures &out) {
             static const NttDifferential d = nttRoundTripDifferential();
             fuzzNttInstance(d, seed, n, mix, false, out);
         }},
        // Proofs are expensive; proofdet proves four times.
        {"groth16", 40, 7, 6, nullptr, false, fuzzGroth16},
        {"proofdet", 80, 23, 7, nullptr, false, fuzzProofDeterminism},
        // Chaos runs may retry across both backends.
        {"fault", 16, 11, 8, nullptr, false, fuzzFault},
        // A full setup+prove per hit: the sparsest slot of all.
        {"workload", 64, 13, 10, nullptr, false, fuzzWorkload},
        // Cheap (pure field ops); run densely so the ISA arms see
        // every scalar regime the other targets see.
        {"ffdispatch", 4, 2, 11,
         [](std::uint64_t s, std::uint64_t i, std::size_t) {
             return std::size_t(1 + deriveSeed(s, i, 12) % 96);
         },
         false, fuzzFfDispatch},
        // Whole-service chaos: each replays one plan of the matching
        // ServiceChaos sweep; too slow for the mixed sweep.
        {"service-fault", 0, 0, 0, nullptr, false,
         [](std::uint64_t seed, std::size_t, ScalarMix, FuzzFailures &out) {
             auto plan = randomPlan(servicePlans(), seed);
             checkServiceChaos(plan, runServiceChaosPlan(plan, seed), out);
         }},
        {"overload-fault", 0, 0, 0, nullptr, false,
         [](std::uint64_t seed, std::size_t, ScalarMix, FuzzFailures &out) {
             auto plan = randomPlan(overloadPlans(), seed);
             checkServiceChaos(plan, runOverloadChaosPlan(plan, seed, ""),
                               out);
         }},
        {"device-fault", 0, 0, 0, nullptr, false,
         [](std::uint64_t seed, std::size_t, ScalarMix, FuzzFailures &out) {
             auto plan = randomPlan(devicePlans(), seed);
             checkServiceChaos(
                 plan,
                 runOverloadChaosPlan(plan, seed, kDeviceChaosTopology),
                 out);
         }},
    };
    return rows;
}

/** The row named `kind`, or null. */
inline const FuzzTarget *
findFuzzTarget(std::string_view kind)
{
    for (const FuzzTarget &t : fuzzTargets())
        if (t.kind == kind)
            return &t;
    return nullptr;
}

/** The repro fragment that replays exactly this instance. */
inline std::string
reproLine(const FuzzTarget &t, std::uint64_t seed, std::size_t size,
          ScalarMix mix)
{
    std::ostringstream os;
    os << "--seed=" << seed;
    if (t.size != nullptr)
        os << " --size=" << size;
    os << " --kind=" << t.kind;
    if (t.mixed)
        os << ":" << name(mix);
    return os.str();
}

/** A parsed --kind value: a row, and the mix when one was named. */
struct FuzzKind {
    const FuzzTarget *target = nullptr;
    std::optional<ScalarMix> mix;
};

/**
 * Parse "kind" or "kind:mix" (mixed rows only); nullopt when the
 * kind or the mix is unknown.
 */
inline std::optional<FuzzKind>
resolveFuzzKind(const std::string &spec)
{
    std::size_t colon = spec.find(':');
    FuzzKind k;
    k.target = findFuzzTarget(spec.substr(0, colon));
    if (k.target == nullptr)
        return std::nullopt;
    if (colon == std::string::npos)
        return k;
    if (!k.target->mixed)
        return std::nullopt;
    try {
        k.mix = scalarMixFromName(spec.substr(colon + 1));
    } catch (const std::invalid_argument &) {
        return std::nullopt;
    }
    return k;
}

/** Run one instance of `t`, reporting failures with their repro. */
inline void
fuzzInstance(const FuzzTarget &t, std::uint64_t seed, std::size_t size,
             ScalarMix mix, FuzzReport &rep)
{
    FuzzFailures out;
    t.run(seed, size, mix, out);
    for (std::string &detail : out)
        rep.failures.push_back(
            {t.kind, reproLine(t, seed, size, mix), std::move(detail)});
}

/**
 * Replay from a repro line: one instance at (seed, size) under the
 * named mix. A mixed row given no mix runs under every mix; a row
 * with no size dimension runs `size` consecutive seeds from `seed`
 * when size > 1. `iterations` counts the instances run.
 */
inline FuzzReport
replayFuzzKind(const FuzzKind &k, std::uint64_t seed, std::size_t size)
{
    const FuzzTarget &t = *k.target;
    std::size_t mixes = t.mixed && !k.mix ? kScalarMixCount : 1;
    std::size_t seeds =
        t.size != nullptr ? 1 : std::max<std::size_t>(size, 1);
    FuzzReport rep;
    for (std::size_t s = 0; s < seeds; ++s) {
        for (std::size_t m = 0; m < mixes; ++m) {
            fuzzInstance(t, seed + s, t.size != nullptr ? size : 0,
                         k.mix.value_or(ScalarMix(m)), rep);
            ++rep.iterations;
        }
    }
    return rep;
}

// ---------------------------------------------------------- top level

struct FuzzOptions {
    std::uint64_t seed = 1;
    std::uint64_t iterations = 100;
    double maxSeconds = 0;      //!< 0 = no time bound
    std::size_t maxMsmSize = 40;
    /** The rows to run, each at its own cadence. */
    std::vector<FuzzTarget> targets = fuzzTargets();
};

/**
 * The bounded mixed sweep used by tools/fuzz_driver and the tests:
 * iteration i draws one scalar mix and runs every row whose cadence
 * hits i, in table order.
 */
inline FuzzReport
fuzzAll(const FuzzOptions &opt)
{
    auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    FuzzReport rep;
    for (std::uint64_t i = 0; i < opt.iterations; ++i) {
        if (opt.maxSeconds > 0 && elapsed() > opt.maxSeconds)
            break;
        ScalarMix mix =
            ScalarMix(deriveSeed(opt.seed, i) % kScalarMixCount);
        for (const FuzzTarget &t : opt.targets) {
            if (t.every == 0 || i % t.every != t.offset)
                continue;
            std::size_t size = t.size != nullptr
                ? t.size(opt.seed, i, opt.maxMsmSize)
                : 0;
            fuzzInstance(t, deriveSeed(opt.seed, i, t.salt), size, mix,
                         rep);
        }
        ++rep.iterations;
    }
    return rep;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_FUZZ_HH
