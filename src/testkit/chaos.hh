/**
 * @file
 * Chaos harness: seeded fault-plan generation plus the single
 * invariant every chaos run is held to --
 *
 *     a prover run under ANY fault plan ends in exactly one of two
 *     states: a proof that verifies, or a typed non-OK gzkp::Status.
 *     Never an invalid proof, never a crash, never a hang.
 *
 * One generator, randomPlan(), draws random-but-reproducible plans
 * over a sweep's site vocabulary (so arms actually hit the pipeline
 * rather than matching nothing). runChaosPlan() runs the self-checking
 * BN254 prover under a plan; runServiceChaosPlan() and
 * runOverloadChaosPlan() run a whole ProofService. tests/test_chaos.cc
 * sweeps seeded plans through each and asserts the invariant on every
 * one; fuzz_driver --kind=fault (service-fault, overload-fault,
 * device-fault) replays one plan by seed.
 */

#ifndef GZKP_TESTKIT_CHAOS_HH
#define GZKP_TESTKIT_CHAOS_HH

#include <cstdint>
#include <initializer_list>
#include <iterator>
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
 * The vocabulary one chaos sweep draws its plans from. Each sweep has
 * its own salt, so one seed draws a different plan in each sweep, and
 * each site list extends the previous sweep's by appending, so adding
 * a sweep never moves the plans an earlier one draws.
 */
struct PlanVocabulary {
    /** Arms draw from deriveSeed(seed, salt); the plan's fire seed
        is deriveSeed(seed, salt + 1). */
    std::uint64_t salt = 0;
    std::vector<std::string> sites; //!< probe sites an arm may target
    /** Sites half of all arms target directly; empty = no bias. */
    std::vector<std::string> bias{};
    /** Arms on a device.* site get the kind its probe checks (mem is
        an allocation probe, fail/slow are launch probes), so biased
        arms really fire; the kind is then drawn after the site. */
    bool deviceKinds = false;
};

namespace detail {

inline std::vector<std::string>
extendSites(std::vector<std::string> sites,
            std::initializer_list<const char *> more)
{
    sites.insert(sites.end(), more.begin(), more.end());
    return sites;
}

} // namespace detail

/**
 * The prover sweep: probe sites that exist in the pipeline, so arms
 * actually hit it rather than matching nothing. "*" and a
 * never-matching site are included deliberately: the sweep must also
 * cover everything-fails and nothing-fires plans. "msm.bellperson"
 * never fires here (the prover ladder is GZKP -> serial; only benches
 * and differential tests run the bellperson baseline), so it is a
 * second nothing-fires site; it stays so the seeded sweep keeps
 * drawing the same plans.
 */
inline const PlanVocabulary &
proverPlans()
{
    static const PlanVocabulary v{
        .salt = 0xFA,
        .sites = {"*", "msm.gzkp", "msm.gzkp.bucket", "msm.gzkp.preprocess",
                  "msm.gzkp.kernel", "msm.serial", "msm.bellperson",
                  "ntt.cpu", "groth16.poly.h", "msm", "ntt",
                  "no.such.site"}};
    return v;
}

/** The service sweep: the serving layer's probe sites on top. */
inline const PlanVocabulary &
servicePlans()
{
    static const PlanVocabulary v{
        .salt = 0x5FA,
        .sites = detail::extendSites(
            proverPlans().sites,
            {"service.queue", "service.cache.build", "service.cache.table",
             "service.cache", "service"})};
    return v;
}

/**
 * The overload sweep: the overload-control sites (spurious admission
 * sheds, hedge-launch failures, a lying circuit breaker) on top, and
 * half of all arms aimed at them.
 */
inline const PlanVocabulary &
overloadPlans()
{
    static const PlanVocabulary v{
        .salt = 0x0FA,
        .sites = detail::extendSites(
            servicePlans().sites,
            {"service.shed", "service.hedge", "service.breaker"}),
        .bias = {"service.shed", "service.hedge", "service.breaker"}};
    return v;
}

/**
 * The device sweep: the multi-device scheduler's sites on top, generic
 * and aimed at one instance of kDeviceChaosTopology, and half of all
 * arms aimed at them.
 */
inline const PlanVocabulary &
devicePlans()
{
    static const PlanVocabulary v{
        .salt = 0xDFA,
        .sites = detail::extendSites(
            overloadPlans().sites,
            {"device.fail", "device.mem", "device.slow", "device",
             "device.fail.v100.0", "device.slow.1080ti.0",
             "device.mem.cpu.0"}),
        .bias = {"device.fail", "device.mem", "device.slow",
                 "device.fail.v100.0", "device.slow.1080ti.0",
                 "device.mem.cpu.0"},
        .deviceKinds = true};
    return v;
}

/**
 * A seeded, reproducible fault plan over `v`: 1-3 arms with skewed
 * periods (small periods = hard plans) and a mix of limited
 * (transient) and unlimited (persistent) arms. Seed 0 mod 16 yields
 * the empty plan, so every sweep keeps covering the
 * probes-never-touch-data path too.
 */
inline faultsim::FaultPlan
randomPlan(const PlanVocabulary &v, std::uint64_t seed)
{
    static const std::uint64_t periods[] = {1, 1, 2, 3, 5, 17, 64};
    static const std::uint64_t limits[] = {0, 0, 1, 1, 2, 5};
    Rng rng(deriveSeed(seed, v.salt));
    faultsim::FaultPlan plan;
    plan.seed = deriveSeed(seed, v.salt + 1);
    if (seed % 16 == 0)
        return plan; // empty: probes must not perturb anything
    auto drawKind = [&] {
        return faultsim::FaultKind(rng() % faultsim::kFaultKindCount);
    };
    auto drawSite = [&] {
        if (!v.bias.empty() && rng() % 2 == 0)
            return v.bias[rng() % v.bias.size()];
        return v.sites[rng() % v.sites.size()];
    };
    std::size_t arms = 1 + rng() % 3;
    for (std::size_t i = 0; i < arms; ++i) {
        faultsim::FaultArm arm;
        if (v.deviceKinds) {
            arm.site = drawSite();
            if (arm.site.rfind("device.mem", 0) == 0)
                arm.kind = faultsim::FaultKind::Alloc;
            else if (arm.site.rfind("device", 0) == 0)
                arm.kind = faultsim::FaultKind::Launch;
            else
                arm.kind = drawKind();
        } else {
            arm.kind = drawKind();
            arm.site = drawSite();
        }
        arm.period = periods[rng() % std::size(periods)];
        arm.limit = limits[rng() % std::size(limits)];
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

/** What one service chaos run ended as, over all its requests. */
struct ServiceChaosOutcome {
    std::size_t proofsOk = 0;     //!< released AND independently verified
    std::size_t typedErrors = 0;  //!< completed with a non-OK Status
    std::size_t rejectedAtQueue = 0; //!< submit() itself rejected
    std::size_t hedged = 0;          //!< results with hedged set
    /** The one forbidden outcome (see ChaosOutcome). */
    bool releasedBadProof = false;
    /** A delivered proof whose bytes differ from the fault-free
        reference on a run where only routing sites could fire. */
    bool byteMismatch = false;

    /** The chaos invariant, lifted to the whole request set. */
    bool clean() const { return !releasedBadProof && !byteMismatch; }
};

namespace detail {

using ChaosService = service::ProofService<zkp::Bn254Family>;

/**
 * Run a ProofService built from `opt` end to end under the caller's
 * fault plan: register the chaos circuit, submit `reqs` (the plan is
 * live for the whole run, so queue admission, the cache build under
 * single-flight, the cached tables, and every proof attempt are all
 * in the blast radius), drain synchronously, and classify every
 * result into `out`. Released proofs are re-verified with the
 * independent pairing verifier, exactly as runChaosPlan() does; with
 * `refs` set, request i must also deliver exactly the bytes refs[i].
 */
inline void
driveChaosService(const ChaosService::Options &opt,
                  std::vector<ChaosService::Request> reqs,
                  const std::vector<std::string> *refs,
                  ServiceChaosOutcome &out)
{
    const ChaosFixture &fx = chaosFixture();
    auto svc = service::makeBn254ProofService(opt);
    auto cid = svc->registerCircuit(fx.keys.pk, fx.keys.vk,
                                    fx.builder.cs());

    struct Slot {
        std::future<ChaosService::Result> fut;
        std::size_t idx;
    };
    std::vector<Slot> slots;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].circuit = cid;
        auto admitted = svc->submit(std::move(reqs[i]));
        if (!admitted.isOk()) {
            ++out.rejectedAtQueue;
            continue;
        }
        slots.push_back(Slot{std::move(*admitted), i});
    }
    svc->drain();

    for (Slot &s : slots) {
        ChaosService::Result res = s.fut.get();
        if (res.hedged)
            ++out.hedged;
        if (res.status.isOk() && res.proof.has_value()) {
            if (zkp::verifyBn254(fx.keys.vk, *res.proof,
                                 fx.publicInputs)) {
                ++out.proofsOk;
                if (refs != nullptr &&
                    zkp::serializeProof<zkp::Bn254Family>(
                        *res.proof) != (*refs)[s.idx])
                    out.byteMismatch = true;
            } else {
                out.releasedBadProof = true;
            }
        } else if (!res.status.isOk()) {
            ++out.typedErrors;
        } else {
            // OK status without a proof is also a contract violation.
            out.releasedBadProof = true;
        }
    }
}

} // namespace detail

/** Requests per service chaos run. */
inline constexpr std::size_t kServiceChaosRequests = 4;

/**
 * Run a plain ProofService under `plan`: kServiceChaosRequests
 * requests with per-seed prover seeds, no tenants or deadlines.
 */
inline ServiceChaosOutcome
runServiceChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed)
{
    const ChaosFixture &fx = chaosFixture();
    ServiceChaosOutcome out;

    faultsim::ScopedFaultPlan guard(plan);
    detail::ChaosService::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = kServiceChaosRequests;
    opt.cacheBytes = 64ull << 20;
    std::vector<detail::ChaosService::Request> reqs(kServiceChaosRequests);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].witness = fx.builder.assignment();
        reqs[i].seed = deriveSeed(seed, 0xFC00 + i);
    }
    detail::driveChaosService(opt, std::move(reqs), nullptr, out);
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
 * The fixed heterogeneous topology of the device chaos sweep: one
 * V100-geometry GPU, one 1080 Ti-geometry GPU, two single-thread CPU
 * workers -- instance names v100.0, 1080ti.0, cpu.0, cpu.1, which is
 * what the per-instance sites in devicePlans() target.
 */
inline constexpr const char *kDeviceChaosTopology =
    "v100:1,1080ti:1,cpu:2";

/**
 * Sites that steer requests or time stages but never perturb a prover
 * attempt's rng: shed/hedge/breaker/queue, and every device.* site (a
 * failed stage is recomputed bit-identically on a re-placed device).
 */
inline bool
isRoutingSite(const std::string &site)
{
    return site == "service.shed" || site == "service.hedge" ||
        site == "service.breaker" || site == "service.queue" ||
        site.rfind("device", 0) == 0;
}

/**
 * Run a ProofService with the full overload stack live -- fair-share
 * tenants with skewed weights, mixed deadlines (none / generous /
 * hopeless), deadline admission, health tracking and (on even seeds)
 * forced hedging -- under `plan`, and classify every outcome.
 * `topology` is a device spec for the multi-device scheduler
 * (placement, pipelining, per-device breakers, inline stage retries;
 * forced hedging applies only to the single-lane path); empty means
 * single-lane. The invariant is the chaos one: a valid proof or a
 * clean typed error, never a bad proof. On plans whose arms all touch
 * routing sites, delivered bytes must equal the fault-free
 * single-lane reference -- hedged winners and re-placed stages
 * included.
 */
inline ServiceChaosOutcome
runOverloadChaosPlan(const faultsim::FaultPlan &plan, std::uint64_t seed,
                     const std::string &topology)
{
    const ChaosFixture &fx = chaosFixture();
    const auto &refs = overloadReferenceProofs(); // before the guard
    ServiceChaosOutcome out;

    bool routingOnly = true;
    for (const auto &arm : plan.arms)
        routingOnly = routingOnly && isRoutingSite(arm.site);

    faultsim::ScopedFaultPlan guard(plan);
    detail::ChaosService::Options opt;
    opt.threads = 2;
    opt.maxQueueDepth = kOverloadChaosRequests;
    opt.cacheBytes = 64ull << 20;
    opt.forceHedge = seed % 2 == 0;
    opt.tenantWeights = {{0, 4}, {1, 1}, {2, 1}};
    opt.deviceSpec = topology;
    std::vector<detail::ChaosService::Request> reqs(kOverloadChaosRequests);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        auto &req = reqs[i];
        req.witness = fx.builder.assignment();
        req.seed = deriveSeed(0xB17E, i); // fixed: matches refs
        req.tenant = i % 3;
        req.priority = int(i % 2);
        switch ((seed + i) % 4) {
        case 1: req.timeout = std::chrono::milliseconds(5000); break;
        case 2: req.timeout = std::chrono::milliseconds(1); break;
        default: break; // no deadline
        }
    }
    detail::driveChaosService(opt, std::move(reqs),
                              routingOnly ? &refs : nullptr, out);
    return out;
}

} // namespace gzkp::testkit

#endif // GZKP_TESTKIT_CHAOS_HH
