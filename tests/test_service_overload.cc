/**
 * @file
 * Overload-hardening suite (PR 8): fair-share scheduling, deadline
 * admission and shedding, backend health / circuit breakers, hedged
 * retry, the consistent stats snapshot, and the single-flight failure
 * broadcast. The acceptance gates asserted here:
 *
 *  - infeasible deadlines are rejected AT ADMISSION with a typed
 *    kDeadlineExceeded, and a saturated service completes zero proofs
 *    after their deadline expired (ok => on time, structurally);
 *  - a persistently failing backend opens its breaker and later
 *    requests skip it service-wide (learned demotion);
 *  - a hedged winner is byte-identical to the unhedged proof of the
 *    same seeded request;
 *  - parent shutdown during an in-flight hedged pair cancels both
 *    arms and never leaks a prover thread (the test finishing is the
 *    leak check: every join is on the path to return);
 *  - ArtifactCache build failure propagates one typed error to every
 *    single-flight waiter and permits a later rebuild.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hh"
#include "msm/msm_gzkp.hh"
#include "ntt/domain.hh"
#include "runtime/runtime.hh"
#include "service/proof_service.hh"
#include "testkit/testkit.hh"
#include "zkp/serialize.hh"

namespace {

using namespace gzkp;
using testkit::deriveSeed;
using testkit::Rng;
using zkp::Bn254Family;
using G16 = zkp::Groth16<Bn254Family>;
using Fr = ff::Bn254Fr;
using Service = service::ProofService<Bn254Family>;
using Cache = service::ArtifactCache<Bn254Family>;
using service::BackendHealth;
using service::BreakerState;
using service::CostEstimator;
using service::FairShareQueue;

struct OverloadFixture {
    workload::Builder<Fr> builder;
    G16::Keys keys;
    std::vector<Fr> pub;

    OverloadFixture() : builder(testkit::randomCircuit<Fr>(0x0F1, 10))
    {
        Rng rng(deriveSeed(0x0F1, 1));
        keys = G16::setup(builder.cs(), rng);
        const auto &z = builder.assignment();
        pub.assign(z.begin() + 1,
                   z.begin() + 1 + builder.cs().numPublic());
    }
};

const OverloadFixture &
fx()
{
    static const OverloadFixture f;
    return f;
}

Service::Options
baseOptions()
{
    Service::Options opt;
    opt.threads = 2;
    opt.cacheBytes = 64ull << 20;
    return opt;
}

Service::Request
makeRequest(Service::CircuitId id, std::uint64_t seed,
            std::uint64_t tenant = 0, int priority = 0,
            std::chrono::milliseconds timeout = {})
{
    Service::Request req;
    req.circuit = id;
    req.witness = fx().builder.assignment();
    req.seed = seed;
    req.tenant = tenant;
    req.priority = priority;
    req.timeout = timeout;
    return req;
}

// --------------------------------------------------- fair-share queue

/** DRR serves tenants in proportion to their weights. */
TEST(FairShareQueueTest, DeficitRoundRobinHonorsWeights)
{
    FairShareQueue<int> q;
    q.setWeight(0, 4);
    q.setWeight(1, 1);
    for (int i = 0; i < 20; ++i)
        q.push(0, 0, i);
    for (int i = 0; i < 20; ++i)
        q.push(1, 0, 100 + i);
    std::size_t a = 0, b = 0;
    FairShareQueue<int>::Item item;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.pop(item));
        (item.tenant == 0 ? a : b) += 1;
    }
    // Weight 4:1 over 10 pops: 8 vs 2.
    EXPECT_EQ(a, 8u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(q.size(), 30u);
}

/** Higher priority first within a tenant; FIFO breaks ties. */
TEST(FairShareQueueTest, PriorityWithinTenantFifoTies)
{
    FairShareQueue<char> q;
    q.push(7, 0, 'a');
    q.push(7, 5, 'b');
    q.push(7, 1, 'c');
    q.push(7, 5, 'd'); // same priority as 'b': FIFO, 'b' first
    FairShareQueue<char>::Item item;
    std::string order;
    while (q.pop(item))
        order.push_back(item.value);
    EXPECT_EQ(order, "bdca");
}

/** A starved tenant is served as soon as it becomes active. */
TEST(FairShareQueueTest, LateTenantIsNotStarved)
{
    FairShareQueue<int> q;
    q.setWeight(0, 3);
    for (int i = 0; i < 50; ++i)
        q.push(0, 0, i);
    FairShareQueue<int>::Item item;
    ASSERT_TRUE(q.pop(item));
    q.push(1, 0, 999); // arrives late, weight 1
    // Tenant 1 must be served within one full DRR round (<= weight(0)
    // more pops of tenant 0).
    std::size_t before = 0;
    for (;;) {
        ASSERT_TRUE(q.pop(item));
        if (item.tenant == 1)
            break;
        ++before;
        ASSERT_LE(before, 3u);
    }
    EXPECT_EQ(item.value, 999);
}

/** extractIf removes matches in global arrival order, capped. */
TEST(FairShareQueueTest, ExtractIfGlobalArrivalOrder)
{
    FairShareQueue<int> q;
    q.push(0, 0, 10); // seq 0
    q.push(1, 0, 11); // seq 1
    q.push(0, 9, 12); // seq 2 (priority must not matter here)
    q.push(1, 0, 13); // seq 3
    auto got = q.extractIf(
        [](const FairShareQueue<int>::Item &) { return true; }, 3);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].value, 10);
    EXPECT_EQ(got[1].value, 11);
    EXPECT_EQ(got[2].value, 12);
    EXPECT_EQ(q.size(), 1u);
    FairShareQueue<int>::Item item;
    ASSERT_TRUE(q.pop(item));
    EXPECT_EQ(item.value, 13);
    EXPECT_FALSE(q.pop(item));
}

TEST(FairShareQueueTest, ParseTenantWeightsSpec)
{
    auto ok = service::parseTenantWeightsSpec("0:10,1:1,7=3");
    ASSERT_TRUE(ok.isOk());
    EXPECT_EQ(ok->size(), 3u);
    EXPECT_EQ((*ok)[0], 10u);
    EXPECT_EQ((*ok)[1], 1u);
    EXPECT_EQ((*ok)[7], 3u);

    EXPECT_TRUE(service::parseTenantWeightsSpec(nullptr).isOk());
    EXPECT_TRUE(service::parseTenantWeightsSpec("")->empty());

    // Clamping: 0 -> 1, huge -> 10^6.
    auto clamped = service::parseTenantWeightsSpec("1:0,2:9999999");
    ASSERT_TRUE(clamped.isOk());
    EXPECT_EQ((*clamped)[1], 1u);
    EXPECT_EQ((*clamped)[2], 1000000u);

    for (const char *bad :
         {"abc", "1", "1:", ":2", "1:2,", "1:2;3:4", "1:2x"}) {
        auto r = service::parseTenantWeightsSpec(bad);
        EXPECT_FALSE(r.isOk()) << bad;
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << bad;
    }
}

// ------------------------------------------------------ cost estimator

TEST(CostEstimatorTest, EwmaAndQuantiles)
{
    CostEstimator est;
    EXPECT_EQ(est.estimate(3), 0.0); // optimistic cold start
    EXPECT_EQ(est.samples(3), 0u);
    est.record(3, 1.0);
    EXPECT_DOUBLE_EQ(est.estimate(3), 1.0); // init to first sample
    est.record(3, 2.0);
    EXPECT_NEAR(est.estimate(3), 1.3, 1e-12); // alpha = 0.3
    EXPECT_EQ(est.samples(3), 2u);
    // Quantiles over the window: p0 = min, p99 ~ max.
    for (int i = 0; i < 20; ++i)
        est.record(5, 0.1);
    est.record(5, 0.9); // one outlier
    EXPECT_NEAR(est.quantile(5, 0.0), 0.1, 1e-12);
    EXPECT_NEAR(est.quantile(5, 0.99), 0.9, 1e-12);
    // Unknown circuit: quantile falls back to the (zero) EWMA.
    EXPECT_EQ(est.quantile(99, 0.99), 0.0);
}

// ------------------------------------------------------ circuit breaker

BackendHealth::Options
breakerOptions()
{
    BackendHealth::Options opt;
    opt.window = 8;
    opt.minSamples = 4;
    opt.failureThreshold = 0.5;
    opt.cooldownDenials = 3;
    opt.cooldownJitter = 0; // deterministic target in this unit test
    opt.probeSuccesses = 1;
    return opt;
}

TEST(BackendHealthTest, BreakerOpensHalfOpensAndCloses)
{
    BackendHealth h(breakerOptions());
    auto gzkp = zkp::ProverBackend::Gzkp;
    EXPECT_EQ(h.state(gzkp), BreakerState::Closed);
    EXPECT_TRUE(h.allow(gzkp));

    Status fail = unavailableError("injected");
    for (int i = 0; i < 4; ++i)
        h.record(gzkp, fail, 0.1);
    EXPECT_EQ(h.state(gzkp), BreakerState::Open);

    // Cooldown counted in denials: two denies, then the probe.
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_TRUE(h.allow(gzkp)); // third: half-open probe admitted
    EXPECT_EQ(h.state(gzkp), BreakerState::HalfOpen);

    // Probe failure re-opens with a fresh cooldown.
    h.record(gzkp, fail, 0.1);
    EXPECT_EQ(h.state(gzkp), BreakerState::Open);
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_FALSE(h.allow(gzkp));
    EXPECT_TRUE(h.allow(gzkp));

    // Probe success closes and forgets the brown-out window.
    h.record(gzkp, Status::ok(), 0.05);
    EXPECT_EQ(h.state(gzkp), BreakerState::Closed);
    EXPECT_TRUE(h.allow(gzkp));

    auto snap = h.snapshot();
    EXPECT_EQ(snap[gzkp].opens, 2u);
    EXPECT_GE(snap[gzkp].attempts, 5u);
    EXPECT_EQ(snap.totalOpens, 2u);
}

/** Cooperative stops and caller bugs never indict the backend. */
TEST(BackendHealthTest, NeutralStatusesDoNotOpenBreaker)
{
    BackendHealth h(breakerOptions());
    auto b = zkp::ProverBackend::Serial;
    for (int i = 0; i < 16; ++i) {
        h.record(b, cancelledError("stop"), 0.1);
        h.record(b, deadlineExceededError("late"), 0.1);
        h.record(b, invalidArgumentError("caller bug"), 0.1);
    }
    EXPECT_EQ(h.state(b), BreakerState::Closed);
    EXPECT_EQ(h.snapshot()[b].windowFailureRate, 0.0);
}

/** service.breaker fault: a lying allow() is routing-only. */
TEST(BackendHealthTest, InjectedBreakerDenialIsSpurious)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB4;
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "service.breaker", 1, 0});
    faultsim::ScopedFaultPlan guard(plan);
    BackendHealth h(breakerOptions());
    // Every allow() is denied by the injected fault even though the
    // breaker is Closed...
    EXPECT_FALSE(h.allow(zkp::ProverBackend::Gzkp));
    EXPECT_EQ(h.state(zkp::ProverBackend::Gzkp), BreakerState::Closed);
    // ...and the prover pipeline falls back to the full ladder when a
    // monitor denies everything, so requests still complete.
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    auto admitted = svc->submit(makeRequest(id, 1));
    ASSERT_TRUE(admitted.isOk());
    svc->drain();
    Service::Result res = admitted->get();
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    EXPECT_TRUE(zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
}

// -------------------------------------------------- deadline admission

/** The cost model makes submit() reject infeasible deadlines. */
TEST(ServiceOverload, AdmissionShedsInfeasibleDeadline)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->trainCostModel(id, 10.0, 4); // 10s per prove, says the model

    auto shed = svc->submit(
        makeRequest(id, 1, 0, 0, std::chrono::milliseconds(1000)));
    ASSERT_FALSE(shed.isOk());
    EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);

    // No deadline: admitted regardless of the model.
    auto open = svc->submit(makeRequest(id, 2));
    ASSERT_TRUE(open.isOk());
    // Generous deadline: admitted.
    auto generous = svc->submit(
        makeRequest(id, 3, 0, 0, std::chrono::minutes(5)));
    ASSERT_TRUE(generous.isOk());

    Service::Stats st = svc->stats();
    EXPECT_EQ(st.shedAdmission, 1u);
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.accepted, 2u);
    svc->shutdownNow(); // don't pay two real proves in this unit test
}

/** Backlog counts against the budget: a feasible-alone deadline is
    shed once enough estimated work is queued ahead of it. */
TEST(ServiceOverload, AdmissionAccountsForQueueBacklog)
{
    auto opt = baseOptions();
    opt.maxQueueDepth = 64;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->trainCostModel(id, 0.4, 4); // 0.4s per prove

    // 1s budget fits one 0.4s prove with an empty queue...
    auto first = svc->submit(
        makeRequest(id, 1, 0, 0, std::chrono::milliseconds(1000)));
    ASSERT_TRUE(first.isOk());
    // ...queue two more no-deadline requests (0.8s more backlog)...
    ASSERT_TRUE(svc->submit(makeRequest(id, 2)).isOk());
    ASSERT_TRUE(svc->submit(makeRequest(id, 3)).isOk());
    // ...now 1.2s backlog + 0.4s own > 1s: shed at admission.
    auto shed = svc->submit(
        makeRequest(id, 4, 0, 0, std::chrono::milliseconds(1000)));
    ASSERT_FALSE(shed.isOk());
    EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
    svc->shutdownNow();
}

/** One tenant's backlog cannot blind admission to tenancy: the
    per-tenant bound sheds the hog and still admits others. */
TEST(ServiceOverload, PerTenantDepthBoundShedsOnlyTheHog)
{
    auto opt = baseOptions();
    opt.maxQueueDepth = 64;
    opt.maxQueuePerTenant = 2;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    ASSERT_TRUE(svc->submit(makeRequest(id, 1, /*tenant=*/5)).isOk());
    ASSERT_TRUE(svc->submit(makeRequest(id, 2, 5)).isOk());
    auto hog = svc->submit(makeRequest(id, 3, 5));
    ASSERT_FALSE(hog.isOk());
    EXPECT_EQ(hog.status().code(), StatusCode::kResourceExhausted);
    // A different tenant is unaffected by tenant 5's backlog.
    EXPECT_TRUE(svc->submit(makeRequest(id, 4, /*tenant=*/6)).isOk());
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.accepted, 3u);
    svc->shutdownNow();
}

/**
 * Saturation: more deadline work than capacity. The service may shed
 * at admission, at dequeue, or late-drop -- but an OK result is
 * always on time, and accounting closes exactly.
 */
TEST(ServiceOverload, SaturationCompletesZeroProofsPastDeadline)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    const auto budget = std::chrono::milliseconds(300);
    const double budget_s = 0.3;

    std::vector<std::future<Service::Result>> futures;
    std::size_t shedAtDoor = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        auto admitted =
            svc->submit(makeRequest(id, 100 + i, i % 2, 0, budget));
        if (!admitted.isOk()) {
            EXPECT_EQ(admitted.status().code(),
                      StatusCode::kDeadlineExceeded);
            ++shedAtDoor;
            continue;
        }
        futures.push_back(std::move(*admitted));
    }
    svc->drain();

    std::size_t onTime = 0, lateTyped = 0;
    for (auto &f : futures) {
        Service::Result res = f.get();
        if (res.status.isOk()) {
            ASSERT_TRUE(res.proof.has_value());
            EXPECT_TRUE(
                zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
            // The acceptance gate: ok => delivered within budget.
            EXPECT_LE(res.queueSeconds + res.proveSeconds,
                      budget_s + 0.05);
            ++onTime;
        } else {
            EXPECT_EQ(res.status.code(),
                      StatusCode::kDeadlineExceeded)
                << res.status.toString();
            ++lateTyped;
        }
    }
    // ~0.1s/prove against 0.3s budgets: the tail must get shed.
    EXPECT_GE(lateTyped + shedAtDoor, 1u);
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed, onTime);
    EXPECT_EQ(st.failed, lateTyped);
    EXPECT_EQ(st.completed + st.failed, st.accepted);
    EXPECT_GE(st.deadlineExpired, lateTyped);
}

// ---------------------------------------------- service-wide learning

/** A persistently browned-out backend opens its breaker; later
    requests skip it without paying its retry budget. */
TEST(ServiceOverload, BreakerLearnsAcrossRequests)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB0;
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "msm.gzkp", 1, 0}); // persistent
    faultsim::ScopedFaultPlan guard(plan);

    auto opt = baseOptions();
    BackendHealth::Options hopt;
    hopt.window = 8;
    hopt.minSamples = 4;
    hopt.cooldownDenials = 100; // stay open for this short test
    hopt.cooldownJitter = 0;
    opt.healthOptions = hopt;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());

    for (std::uint64_t i = 0; i < 5; ++i) {
        auto admitted = svc->submit(makeRequest(id, 200 + i));
        ASSERT_TRUE(admitted.isOk());
        svc->drain();
        Service::Result res = admitted->get();
        ASSERT_TRUE(res.status.isOk()) << res.status.toString();
        EXPECT_NE(res.backendUsed, zkp::ProverBackend::Gzkp);
        EXPECT_TRUE(
            zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
    }
    Service::Stats st = svc->stats();
    ASSERT_TRUE(st.healthTracking);
    EXPECT_GE(st.health[zkp::ProverBackend::Gzkp].opens, 1u);
    EXPECT_EQ(st.health[zkp::ProverBackend::Gzkp].state,
              BreakerState::Open);
    // The learned skip: at least the post-open requests never touched
    // the gzkp tier.
    EXPECT_GE(st.backendsSkipped, 1u);
    EXPECT_EQ(svc->health()->state(zkp::ProverBackend::Gzkp),
              BreakerState::Open);
}

// -------------------------------------------------------- hedged retry

/** Hedged winners are byte-identical to the unhedged proof. */
TEST(ServiceOverload, HedgedProofByteIdenticalToUnhedged)
{
    auto unhedgedOpt = baseOptions();
    unhedgedOpt.hedging = false;
    auto plain = service::makeBn254ProofService(unhedgedOpt);
    auto pid = plain->registerCircuit(fx().keys.pk, fx().keys.vk,
                                      fx().builder.cs());
    auto hedgedOpt = baseOptions();
    hedgedOpt.forceHedge = true;
    auto hedged = service::makeBn254ProofService(hedgedOpt);
    auto hid = hedged->registerCircuit(fx().keys.pk, fx().keys.vk,
                                       fx().builder.cs());

    auto a = plain->submit(makeRequest(pid, 0x5EED));
    ASSERT_TRUE(a.isOk());
    plain->drain();
    Service::Result ra = a->get();
    ASSERT_TRUE(ra.status.isOk()) << ra.status.toString();
    EXPECT_FALSE(ra.hedged);

    auto b = hedged->submit(makeRequest(hid, 0x5EED));
    ASSERT_TRUE(b.isOk());
    hedged->drain();
    Service::Result rb = b->get();
    ASSERT_TRUE(rb.status.isOk()) << rb.status.toString();
    EXPECT_TRUE(rb.hedged);

    EXPECT_EQ(zkp::serializeProof<Bn254Family>(*ra.proof),
              zkp::serializeProof<Bn254Family>(*rb.proof));
    Service::Stats st = hedged->stats();
    EXPECT_EQ(st.hedgesLaunched, 1u);
    EXPECT_LE(st.hedgeWins, 1u);
}

/** service.hedge fault: losing the hedge launch downgrades the
    request to the unhedged path; it still completes. */
TEST(ServiceOverload, HedgeLaunchFailureDowngradesGracefully)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xB1;
    plan.arms.push_back(
        {faultsim::FaultKind::Launch, "service.hedge", 1, 0});
    faultsim::ScopedFaultPlan guard(plan);

    auto opt = baseOptions();
    opt.forceHedge = true;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    auto admitted = svc->submit(makeRequest(id, 0xFEED));
    ASSERT_TRUE(admitted.isOk());
    svc->drain();
    Service::Result res = admitted->get();
    ASSERT_TRUE(res.status.isOk()) << res.status.toString();
    EXPECT_FALSE(res.hedged);
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.hedgesLaunched, 0u);
    EXPECT_GE(st.hedgeLaunchFailures, 1u);
    EXPECT_TRUE(zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
}

/**
 * Satellite: parent shutdown during an in-flight hedged pair. Both
 * arms hang off the request token which hangs off the shutdown token;
 * shutdownNow() must resolve every future (kCancelled or a completed
 * proof, depending on how far the race got) and join every thread --
 * this test returning at all is the no-leak assertion, since both the
 * hedge arm join and the worker join are on the only exit path.
 */
TEST(ServiceOverload, ShutdownDuringHedgedPairCancelsBothArms)
{
    auto opt = baseOptions();
    opt.forceHedge = true;
    auto svc = service::makeBn254ProofService(opt);
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->start();
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 3; ++i) {
        auto admitted = svc->submit(makeRequest(id, 300 + i));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    // Let the worker pick the batch up, then pull the plug mid-prove.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    svc->shutdownNow();
    std::size_t cancelled = 0, completedOk = 0;
    for (auto &f : futures) {
        Service::Result res = f.get(); // must never hang
        if (res.status.isOk()) {
            ++completedOk;
            EXPECT_TRUE(
                zkp::verifyBn254(fx().keys.vk, *res.proof, fx().pub));
        } else {
            EXPECT_EQ(res.status.code(), StatusCode::kCancelled)
                << res.status.toString();
            ++cancelled;
        }
    }
    EXPECT_EQ(cancelled + completedOk, futures.size());
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed + st.failed, st.accepted);
}

// ------------------------------------------------- token deadline chain

TEST(RuntimeCancelChain, DeadlinePropagatesThroughParentChain)
{
    using Clock = runtime::CancelToken::Clock;
    runtime::CancelToken root, mid, leaf;
    mid.linkParent(&root);
    leaf.linkParent(&mid);

    EXPECT_FALSE(leaf.deadline().has_value());
    auto t1 = Clock::now() + std::chrono::seconds(10);
    auto t2 = Clock::now() + std::chrono::seconds(20);
    root.setDeadline(t2);
    ASSERT_TRUE(leaf.deadline().has_value());
    EXPECT_EQ(*leaf.deadline(), t2);
    // The leaf's own (earlier) deadline wins the min.
    leaf.setDeadline(t1);
    EXPECT_EQ(*leaf.deadline(), t1);
    // A tighter ancestor wins again.
    auto t0 = Clock::now() + std::chrono::seconds(1);
    mid.setDeadline(t0);
    EXPECT_EQ(*leaf.deadline(), t0);

    // Cancellation still propagates the whole chain at once.
    EXPECT_FALSE(leaf.cancelled());
    root.cancel();
    EXPECT_TRUE(mid.cancelled());
    EXPECT_TRUE(leaf.cancelled());
}

// ------------------------------------------------------ stats snapshot

/**
 * Satellite: stats() is one consistent copy-out. Readers hammer the
 * snapshot while the background worker proves; every snapshot must
 * satisfy the cross-field invariants (this is the test the TSAN CI
 * job exercises via the `service` label).
 */
TEST(ServiceOverload, StatsSnapshotIsConsistentUnderConcurrency)
{
    auto svc = service::makeBn254ProofService(baseOptions());
    auto id = svc->registerCircuit(fx().keys.pk, fx().keys.vk,
                                   fx().builder.cs());
    svc->start();
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed)) {
            Service::Stats st = svc->stats();
            EXPECT_LE(st.completed + st.failed, st.accepted);
            EXPECT_LE(st.hedgeWins, st.hedgesLaunched);
            EXPECT_LE(st.batchedRequests,
                      st.accepted); // batched <= admitted
            std::this_thread::yield();
        }
    });
    std::vector<std::future<Service::Result>> futures;
    for (std::uint64_t i = 0; i < 4; ++i) {
        auto admitted = svc->submit(makeRequest(id, 400 + i, i % 2));
        ASSERT_TRUE(admitted.isOk());
        futures.push_back(std::move(*admitted));
    }
    for (auto &f : futures)
        f.get();
    done.store(true, std::memory_order_relaxed);
    reader.join();
    svc->stop();
    Service::Stats st = svc->stats();
    EXPECT_EQ(st.completed, 4u);
    EXPECT_EQ(st.completed + st.failed, st.accepted);
}

// ------------------------------------------- single-flight broadcast

/** A failed build propagates its typed error to every waiter, then a
    later call rebuilds fresh. */
TEST(ArtifactCacheOverload, SingleFlightFailureBroadcastsToWaiters)
{
    Cache cache(64ull << 20);
    std::uint64_t key = service::pkContentHash<Bn254Family>(fx().keys.pk);

    std::promise<void> builderEntered;
    Cache::Builder failing = [&]() -> StatusOr<Cache::ArtifactPtr> {
        builderEntered.set_value();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return internalError("injected build failure");
    };

    std::thread builder([&] {
        auto r = cache.getOrBuild(key, failing);
        EXPECT_FALSE(r.isOk());
        EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    });
    builderEntered.get_future().wait(); // builder owns the flight
    // This call becomes a single-flight waiter and must receive the
    // builder's typed error -- not retry the build itself.
    auto waited = cache.getOrBuild(key, failing);
    builder.join();
    ASSERT_FALSE(waited.isOk());
    EXPECT_EQ(waited.status().code(), StatusCode::kInternal);

    Cache::Stats st = cache.stats();
    EXPECT_EQ(st.buildFailures, 1u); // the waiter did NOT rebuild
    EXPECT_EQ(st.singleFlightWaits, 1u);
    EXPECT_EQ(st.entries, 0u);

    // A later rebuild with a working builder succeeds.
    bool hit = true;
    auto rebuilt = cache.getOrBuild(
        key,
        [&] {
            return service::buildCircuitArtifacts<Bn254Family>(
                fx().keys.pk, key, 2);
        },
        &hit);
    ASSERT_TRUE(rebuilt.isOk()) << rebuilt.status().toString();
    EXPECT_FALSE(hit);
    EXPECT_EQ(cache.stats().builds, 1u);
}

/** The faultsim-injected variant: a service.cache.build hit fails the
    flight with kResourceExhausted; the next call rebuilds. */
TEST(ArtifactCacheOverload, InjectedBuildFailureThenRebuild)
{
    faultsim::FaultPlan plan;
    plan.seed = 0xCB;
    plan.arms.push_back(
        {faultsim::FaultKind::Alloc, "service.cache.build", 1, 1});
    faultsim::ScopedFaultPlan guard(plan);

    Cache cache(64ull << 20);
    std::uint64_t key = service::pkContentHash<Bn254Family>(fx().keys.pk);
    auto build = [&] {
        return service::buildCircuitArtifacts<Bn254Family>(
            fx().keys.pk, key, 2);
    };
    auto first = cache.getOrBuild(key, build);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(cache.stats().buildFailures, 1u);
    // The arm's limit is exhausted: the rebuild goes through.
    auto second = cache.getOrBuild(key, build);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(cache.stats().builds, 1u);
}

} // namespace
