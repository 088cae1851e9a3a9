/**
 * @file
 * Chaos harness: seeded fault-plan generation plus the single
 * invariant every chaos run is held to --
 *
 *     a prover run under ANY fault plan ends in exactly one of two
 *     states: a proof that verifies, or a typed non-OK gzkp::Status.
 *     Never an invalid proof, never a crash, never a hang.
 *
 * The harness generates random-but-reproducible plans over the real
 * probe-site vocabulary (so arms actually hit the pipeline rather
 * than matching nothing), runs the self-checking BN254 prover under
 * each, and classifies the outcome. tests/test_chaos.cc sweeps
 * hundreds of seeds through runChaosPlan() and asserts the invariant
 * on every one; the CI chaos job replays a slice of the same sweep
 * through the GZKP_FAULTS environment path.
 */

#ifndef GZKP_TESTKIT_CHAOS_HH
#define GZKP_TESTKIT_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/faultsim.hh"
#include "service/proof_service.hh"
#include "testkit/generators.hh"
#include "testkit/rng.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

namespace gzkp::testkit {

/**
 * The shared chaos workload: one small satisfiable circuit and its
 * Groth16 keys, built once (setup is fault-free by construction --
 * plans are installed per run, after the fixture exists).
 */
struct ChaosFixture {
    workload::Builder<ff::Bn254Fr> builder;
    zkp::Groth16<zkp::Bn254Family>::Keys keys;
    std::vector<ff::Bn254Fr> publicInputs;

    ChaosFixture()
        : builder(randomCircuit<ff::Bn254Fr>(0xC0FFEE, 10))
    {
        Rng rng(deriveSeed(0xC0FFEE, 1));
        keys = zkp::Groth16<zkp::Bn254Family>::setup(builder.cs(), rng);
        const auto &z = builder.assignment();
        publicInputs.assign(z.begin() + 1,
                            z.begin() + 1 + builder.cs().numPublic());
    }
};

inline const ChaosFixture &
chaosFixture()
{
    static const ChaosFixture fx;
    return fx;
}

/**
 * Probe sites that exist in the pipeline, used to bias generated
 * arms toward plans that actually fire. "*" and a never-matching
 * site are included deliberately: the sweep must also cover
 * everything-fails and nothing-fires plans. "msm.bellperson" never
 * fires here (the prover ladder is GZKP -> serial; only benches and
 * differential tests run the bellperson baseline), so it is a second
 * nothing-fires site; it stays so the seeded sweep keeps drawing the
 * same plans.
 */
inline const std::vector<std::string> &
chaosSites()
{
    static const std::vector<std::string> sites = {
        "*",
        "msm.gzkp",
        "msm.gzkp.bucket",
        "msm.gzkp.preprocess",
        "msm.gzkp.kernel",
        "msm.serial",
        "msm.bellperson",
        "ntt.cpu",
        "groth16.poly.h",
        "msm",
        "ntt",
        "no.such.site",
    };
    return sites;
}

/**
 * A seeded, reproducible fault plan: 0-3 arms over the real site
 * vocabulary with skewed periods (small periods = hard plans) and a
 * mix of limited (transient) and unlimited (persistent) arms.
 * Seed 0 mod 16 yields the empty plan, so the sweep keeps covering
 * the probes-never-touch-data path too.
 */
inline faultsim::FaultPlan
randomFaultPlan(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0xFA));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, 0xFB);
    if (seed % 16 == 0)
        return plan; // empty: probes must not perturb anything
    std::size_t arms = 1 + rng() % 3;
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    const auto &sites = chaosSites();
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        arm.kind =
            faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
        arm.site = sites[rng() % sites.size()];
        arm.period = periods[rng() % (sizeof(periods) /
                                      sizeof(periods[0]))];
        arm.limit =
            limits[rng() % (sizeof(limits) / sizeof(limits[0]))];
        plan.arms.push_back(arm);
    }
    return plan;
}

/** What one chaos run ended as. */
struct ChaosOutcome {
    bool proofOk = false;   //!< a proof was returned AND verifies
    /** The pipeline released a proof the verifier rejects: the one
        outcome the subsystem exists to make impossible. */
    bool releasedBadProof = false;
    Status status;          //!< the typed error otherwise
    std::uint64_t fires = 0; //!< probe fires during the run
    zkp::SelfCheckingProver<zkp::Bn254Family>::Report report;

    /** The chaos invariant. */
    bool
    clean() const
    {
        if (releasedBadProof)
            return false;
        return proofOk ? status.isOk() : !status.isOk();
    }
};

/**
 * Run the self-checking prover once under `plan`. The returned
 * outcome always satisfies clean(); the caller additionally asserts
 * that proofOk implies independent pairing verification passed
 * (checked here, outside the prover's own self-check).
 */
inline ChaosOutcome
runChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed)
{
    const ChaosFixture &fx = chaosFixture();
    ChaosOutcome out;

    faultsim::ScopedFaultPlan guard(plan);
    zkp::SelfCheckingProver<zkp::Bn254Family>::Options opt;
    opt.threads = 2;
    auto prover = zkp::makeBn254SelfCheckingProver(opt);

    Rng rng(deriveSeed(seed, 0xFC));
    auto r = prover.prove(fx.keys.pk, fx.keys.vk, fx.builder.cs(),
                          fx.builder.assignment(), rng, &out.report);
    out.fires = faultsim::firedCount();
    if (r.isOk()) {
        // Independent acceptance check: the pipeline must never
        // release a proof the *verifier* (which carries no probes)
        // rejects. A failure here is the invariant violation the
        // whole subsystem exists to prevent.
        if (zkp::verifyBn254(fx.keys.vk, *r, fx.publicInputs)) {
            out.proofOk = true;
        } else {
            out.releasedBadProof = true;
            out.status = dataLossError(
                "chaos: pipeline released a non-verifying proof");
        }
    } else {
        out.status = r.status();
    }
    return out;
}

// ------------------------------------------------------ service chaos

/**
 * The serving layer's probe sites plus the prover vocabulary. A
 * separate list (rather than extending chaosSites()) so the existing
 * prover sweep keeps generating the exact plans it always has for a
 * given seed.
 */
inline const std::vector<std::string> &
serviceChaosSites()
{
    static const std::vector<std::string> sites = [] {
        std::vector<std::string> s = chaosSites();
        s.push_back("service.queue");
        s.push_back("service.cache.build");
        s.push_back("service.cache.table");
        s.push_back("service.cache");
        s.push_back("service");
        return s;
    }();
    return sites;
}

/**
 * The overload-control probe sites (PR 8) on top of the service
 * vocabulary: spurious admission sheds, hedge-launch failures and a
 * lying circuit breaker. Again a separate list so the existing
 * service sweep keeps its per-seed plans.
 */
inline const std::vector<std::string> &
overloadChaosSites()
{
    static const std::vector<std::string> sites = [] {
        std::vector<std::string> s = serviceChaosSites();
        s.push_back("service.shed");
        s.push_back("service.hedge");
        s.push_back("service.breaker");
        return s;
    }();
    return sites;
}

/** randomFaultPlan() over the service site vocabulary. */
inline faultsim::FaultPlan
randomServiceFaultPlan(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0x5FA));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, 0x5FB);
    if (seed % 16 == 0)
        return plan;
    std::size_t arms = 1 + rng() % 3;
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    const auto &sites = serviceChaosSites();
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        arm.kind =
            faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
        arm.site = sites[rng() % sites.size()];
        arm.period = periods[rng() % (sizeof(periods) /
                                      sizeof(periods[0]))];
        arm.limit =
            limits[rng() % (sizeof(limits) / sizeof(limits[0]))];
        plan.arms.push_back(arm);
    }
    return plan;
}

/** What one service chaos run ended as, over all its requests. */
struct ServiceChaosOutcome {
    std::size_t proofsOk = 0;     //!< released AND independently verified
    std::size_t typedErrors = 0;  //!< completed with a non-OK Status
    std::size_t rejectedAtQueue = 0; //!< submit() itself rejected
    /** The one forbidden outcome (see ChaosOutcome). */
    bool releasedBadProof = false;
    std::uint64_t fires = 0;

    /** The chaos invariant, lifted to the whole request set. */
    bool clean() const { return !releasedBadProof; }
};

/**
 * Run a ProofService end to end under `plan`: register the chaos
 * circuit, submit `requests` seeded requests (the plan is live for
 * the whole run, so queue admission, the cache build under
 * single-flight, the cached tables, and every proof attempt are all
 * in the blast radius), drain synchronously, and classify every
 * result. Released proofs are re-verified with the independent
 * pairing verifier, exactly as runChaosPlan() does.
 */
inline ServiceChaosOutcome
runServiceChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed,
                    std::size_t requests = 4)
{
    using Service = service::ProofService<zkp::Bn254Family>;
    const ChaosFixture &fx = chaosFixture();
    ServiceChaosOutcome out;

    faultsim::ScopedFaultPlan guard(plan);
    typename Service::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = requests;
    opt.cacheBytes = 64ull << 20;
    auto svc = service::makeBn254ProofService(opt);
    auto cid = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                    fx.builder.cs());

    std::vector<std::future<typename Service::Result>> futures;
    for (std::size_t i = 0; i < requests; ++i) {
        typename Service::Request req;
        req.circuit = cid;
        req.witness = fx.builder.assignment();
        req.seed = deriveSeed(seed, 0xFC00 + i);
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++out.rejectedAtQueue;
            continue;
        }
        futures.push_back(std::move(*admitted));
    }
    svc->drain();

    for (auto &f : futures) {
        typename Service::Result res = f.get();
        if (res.status.isOk() && res.proof.has_value()) {
            if (zkp::verifyBn254(fx.keys.vk, *res.proof,
                                 fx.publicInputs))
                ++out.proofsOk;
            else
                out.releasedBadProof = true;
        } else if (!res.status.isOk()) {
            ++out.typedErrors;
        } else {
            // OK status without a proof is also a contract violation.
            out.releasedBadProof = true;
        }
    }
    out.fires = faultsim::firedCount();
    return out;
}

// ----------------------------------------------------- overload chaos

/** Requests per overload chaos run (fixed: reference proofs). */
inline constexpr std::size_t kOverloadChaosRequests = 6;

/**
 * Fault-free reference proofs for the overload sweep's fixed request
 * seeds. Computed once, before any plan is installed (callers must
 * touch this BEFORE constructing their ScopedFaultPlan): the bytes a
 * request must deliver whenever no fault perturbed its rng draws.
 */
inline const std::vector<std::string> &
overloadReferenceProofs()
{
    static const std::vector<std::string> refs = [] {
        const ChaosFixture &fx = chaosFixture();
        zkp::SelfCheckingProver<zkp::Bn254Family>::Options opt;
        opt.threads = 2;
        auto prover = zkp::makeBn254SelfCheckingProver(opt);
        std::vector<std::string> out;
        for (std::size_t i = 0; i < kOverloadChaosRequests; ++i) {
            service::ProofRng rng(deriveSeed(0xB17E, i));
            auto r = prover.prove(fx.keys.pk, fx.keys.vk,
                                  fx.builder.cs(),
                                  fx.builder.assignment(), rng);
            out.push_back(
                zkp::serializeProof<zkp::Bn254Family>(*r));
        }
        return out;
    }();
    return refs;
}

/**
 * randomServiceFaultPlan() over the overload vocabulary, biased
 * toward the three new routing sites so the sweep spends most of its
 * seeds on shed/hedge/breaker interference.
 */
inline faultsim::FaultPlan
randomOverloadFaultPlan(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0x0FA));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, 0x0FB);
    if (seed % 16 == 0)
        return plan;
    static const std::vector<std::string> bias = {
        "service.shed", "service.hedge", "service.breaker"};
    std::size_t arms = 1 + rng() % 3;
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    const auto &sites = overloadChaosSites();
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        arm.kind =
            faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
        // 50% of arms target the new routing sites directly.
        arm.site = rng() % 2 == 0 ? bias[rng() % bias.size()]
                                  : sites[rng() % sites.size()];
        arm.period = periods[rng() % (sizeof(periods) /
                                      sizeof(periods[0]))];
        arm.limit =
            limits[rng() % (sizeof(limits) / sizeof(limits[0]))];
        plan.arms.push_back(arm);
    }
    return plan;
}

/** What one overload chaos run ended as, over all its requests. */
struct OverloadChaosOutcome {
    std::size_t proofsOk = 0;
    std::size_t typedErrors = 0;    //!< futures with a non-OK Status
    std::size_t rejectedAtQueue = 0; //!< submit() itself rejected
    std::size_t hedged = 0;          //!< results with hedged set
    bool releasedBadProof = false;
    /** A delivered proof whose bytes differ from the fault-free
        reference on a run where only routing sites could fire. */
    bool byteMismatch = false;
    std::uint64_t fires = 0;

    bool clean() const { return !releasedBadProof && !byteMismatch; }
};

/**
 * Run a ProofService with the full overload stack live -- fair-share
 * tenants with skewed weights, mixed deadlines (none / generous /
 * hopeless), deadline admission, health tracking and (on even seeds)
 * forced hedging -- under `plan`, and classify every outcome. The
 * invariant is the PR-3 one lifted again: a valid proof or a clean
 * typed error, never a bad proof. On plans whose arms touch only
 * routing sites (shed/hedge/breaker/queue: they steer requests but
 * never perturb a prover attempt's rng), delivered bytes must equal
 * the fault-free reference -- hedged winners included.
 */
inline OverloadChaosOutcome
runOverloadChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed)
{
    using Service = service::ProofService<zkp::Bn254Family>;
    const ChaosFixture &fx = chaosFixture();
    const auto &refs = overloadReferenceProofs(); // before the guard
    OverloadChaosOutcome out;

    bool routingOnly = true;
    for (const auto &arm : plan.arms) {
        if (arm.site != "service.shed" && arm.site != "service.hedge" &&
            arm.site != "service.breaker" &&
            arm.site != "service.queue")
            routingOnly = false;
    }

    faultsim::ScopedFaultPlan guard(plan);
    typename Service::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = kOverloadChaosRequests;
    opt.cacheBytes = 64ull << 20;
    opt.forceHedge = seed % 2 == 0;
    opt.tenantWeights = {{0, 4}, {1, 1}, {2, 1}};
    auto svc = service::makeBn254ProofService(opt);
    auto cid = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                    fx.builder.cs());

    struct Slot {
        std::future<typename Service::Result> fut;
        std::size_t idx;
    };
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < kOverloadChaosRequests; ++i) {
        typename Service::Request req;
        req.circuit = cid;
        req.witness = fx.builder.assignment();
        req.seed = deriveSeed(0xB17E, i); // fixed: matches refs
        req.tenant = i % 3;
        req.priority = int(i % 2);
        switch ((seed + i) % 4) {
        case 1: req.timeout = std::chrono::milliseconds(5000); break;
        case 2: req.timeout = std::chrono::milliseconds(1); break;
        default: break; // no deadline
        }
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++out.rejectedAtQueue;
            continue;
        }
        slots.push_back(Slot{std::move(*admitted), i});
    }
    svc->drain();

    for (Slot &s : slots) {
        typename Service::Result res = s.fut.get();
        if (res.hedged)
            ++out.hedged;
        if (res.status.isOk() && res.proof.has_value()) {
            if (zkp::verifyBn254(fx.keys.vk, *res.proof,
                                 fx.publicInputs)) {
                ++out.proofsOk;
                if (routingOnly &&
                    zkp::serializeProof<zkp::Bn254Family>(
                        *res.proof) != refs[s.idx])
                    out.byteMismatch = true;
            } else {
                out.releasedBadProof = true;
            }
        } else if (!res.status.isOk()) {
            ++out.typedErrors;
        } else {
            out.releasedBadProof = true;
        }
    }
    out.fires = faultsim::firedCount();
    return out;
}

// ------------------------------------------------------- device chaos

/**
 * The fixed heterogeneous topology of the device chaos sweep: one
 * V100-geometry GPU, one 1080 Ti-geometry GPU, two single-thread CPU
 * workers -- instance names v100.0, 1080ti.0, cpu.0, cpu.1, which is
 * what the per-instance fault sites below target.
 */
inline constexpr const char *kDeviceChaosTopology =
    "v100:1,1080ti:1,cpu:2";

/**
 * The multi-device scheduler's probe sites on top of the overload
 * vocabulary. Separate list again: earlier sweeps keep their
 * per-seed plans.
 */
inline const std::vector<std::string> &
deviceChaosSites()
{
    static const std::vector<std::string> sites = [] {
        std::vector<std::string> s = overloadChaosSites();
        s.push_back("device.fail");
        s.push_back("device.mem");
        s.push_back("device.slow");
        s.push_back("device");
        s.push_back("device.fail.v100.0");
        s.push_back("device.slow.1080ti.0");
        s.push_back("device.mem.cpu.0");
        return s;
    }();
    return sites;
}

/**
 * randomOverloadFaultPlan() over the device vocabulary, biased
 * toward the per-device sites. Arms landing on a device site get
 * the kind its probes actually check (mem is an allocation probe,
 * fail/slow are launch probes), so biased arms really fire.
 */
inline faultsim::FaultPlan
randomDeviceFaultPlan(std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, 0xDFA));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, 0xDFB);
    if (seed % 16 == 0)
        return plan;
    static const std::vector<std::string> bias = {
        "device.fail",        "device.mem",
        "device.slow",        "device.fail.v100.0",
        "device.slow.1080ti.0", "device.mem.cpu.0"};
    std::size_t arms = 1 + rng() % 3;
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    const auto &sites = deviceChaosSites();
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        // 50% of arms target the device sites directly.
        arm.site = rng() % 2 == 0 ? bias[rng() % bias.size()]
                                  : sites[rng() % sites.size()];
        if (arm.site.rfind("device.mem", 0) == 0)
            arm.kind = faultsim::FaultKind::Alloc;
        else if (arm.site.rfind("device", 0) == 0)
            arm.kind = faultsim::FaultKind::Launch;
        else
            arm.kind =
                faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
        arm.period = periods[rng() % (sizeof(periods) /
                                      sizeof(periods[0]))];
        arm.limit =
            limits[rng() % (sizeof(limits) / sizeof(limits[0]))];
        plan.arms.push_back(arm);
    }
    return plan;
}

/**
 * Run a ProofService on the fixed heterogeneous topology under
 * `plan`: the full device scheduler is live (placement, pipelining,
 * per-device breakers, inline stage retries), plus the usual tenant
 * and deadline mix. Invariant: valid proof or clean typed error,
 * never a bad proof. Every device.* site is routing/timing-only --
 * a failed stage is recomputed bit-identically on a re-placed device
 * -- so plans whose arms touch only device and routing sites must
 * deliver bytes equal to the fault-free single-lane reference.
 */
inline OverloadChaosOutcome
runDeviceChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed)
{
    using Service = service::ProofService<zkp::Bn254Family>;
    const ChaosFixture &fx = chaosFixture();
    const auto &refs = overloadReferenceProofs(); // before the guard
    OverloadChaosOutcome out;

    bool routingOnly = true;
    for (const auto &arm : plan.arms) {
        bool routing = arm.site == "service.shed" ||
            arm.site == "service.hedge" ||
            arm.site == "service.breaker" ||
            arm.site == "service.queue" ||
            arm.site.rfind("device", 0) == 0;
        if (!routing)
            routingOnly = false;
    }

    faultsim::ScopedFaultPlan guard(plan);
    typename Service::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = kOverloadChaosRequests;
    opt.cacheBytes = 64ull << 20;
    opt.deviceSpec = kDeviceChaosTopology;
    opt.tenantWeights = {{0, 4}, {1, 1}, {2, 1}};
    auto svc = service::makeBn254ProofService(opt);
    auto cid = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                    fx.builder.cs());

    struct Slot {
        std::future<typename Service::Result> fut;
        std::size_t idx;
    };
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < kOverloadChaosRequests; ++i) {
        typename Service::Request req;
        req.circuit = cid;
        req.witness = fx.builder.assignment();
        req.seed = deriveSeed(0xB17E, i); // fixed: matches refs
        req.tenant = i % 3;
        req.priority = int(i % 2);
        switch ((seed + i) % 4) {
        case 1: req.timeout = std::chrono::milliseconds(5000); break;
        case 2: req.timeout = std::chrono::milliseconds(1); break;
        default: break; // no deadline
        }
        auto admitted = svc->submit(std::move(req));
        if (!admitted.isOk()) {
            ++out.rejectedAtQueue;
            continue;
        }
        slots.push_back(Slot{std::move(*admitted), i});
    }
    svc->drain();

    for (Slot &s : slots) {
        typename Service::Result res = s.fut.get();
        if (res.status.isOk() && res.proof.has_value()) {
            if (zkp::verifyBn254(fx.keys.vk, *res.proof,
                                 fx.publicInputs)) {
                ++out.proofsOk;
                if (routingOnly &&
                    zkp::serializeProof<zkp::Bn254Family>(
                        *res.proof) != refs[s.idx])
                    out.byteMismatch = true;
            } else {
                out.releasedBadProof = true;
            }
        } else if (!res.status.isOk()) {
            ++out.typedErrors;
        } else {
            out.releasedBadProof = true;
        }
    }
    out.fires = faultsim::firedCount();
    return out;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_CHAOS_HH
