/**
 * @file
 * ProofService: a batched, multi-tenant, overload-hardened in-process
 * proving service.
 *
 * Front end for many concurrent proof requests over a set of
 * registered circuits, built from the pieces the rest of the tree
 * already provides:
 *
 *  - fair-share scheduling: requests carry a tenant id and a
 *    priority; a per-tenant deficit-round-robin queue (fair_queue.hh)
 *    replaces the PR-4 FIFO, so a burst tenant can fill its own share
 *    of the queue but not starve the others. Weights come from
 *    Options::tenantWeights and setTenantWeight();
 *  - admission control & load shedding: a bounded queue rejects past
 *    the high-watermark with kResourceExhausted, and deadline-aware
 *    admission (admission.hh) rejects with kDeadlineExceeded when the
 *    online per-circuit cost model says the deadline cannot be met at
 *    the current backlog. Queued work is re-checked at dequeue so
 *    doomed requests are shed, not proved, and a proof that finishes
 *    after its deadline is dropped (typed error), never delivered --
 *    the service completes zero proofs past their deadline;
 *  - backend health: one BackendHealth registry per service
 *    (backend_health.hh) watches every prover attempt across all
 *    requests; open circuit breakers make SelfCheckingProver skip a
 *    browned-out backend outright instead of paying its retry budget
 *    on every request;
 *  - hedged retry: when the remaining deadline budget falls below
 *    kHedgeFactor x p99 (or Options::forceHedge), the proof is
 *    launched on the serial backend concurrently and the first
 *    valid result wins; the loser is cancelled through a child
 *    CancelToken. Proof bytes depend only on (circuit, witness, seed)
 *    -- never on the backend -- so a hedged winner is byte-identical
 *    to the unhedged proof;
 *  - shared artifacts: each batch resolves its circuit through the
 *    ArtifactCache, so Algorithm-1 preprocessing and NTT twiddle
 *    tables are paid once per circuit, not once per proof. A cache
 *    miss-under-pressure downgrades to proving uncached -- never a
 *    failure;
 *  - multi-device scheduling: with a device topology
 *    (Options::deviceSpec), each proof's POLY and MSM stages are
 *    placed onto a heterogeneous fleet of simulated GPUs and CPU
 *    workers and pipelined across requests
 *    (src/device/scheduler.hh); each device is its own quarantine
 *    domain ("device.fail" / "device.mem" / "device.slow" fault
 *    sites), and the proof bytes are identical on every topology;
 *  - batching: the scheduler pops one request by fair share, then
 *    drags every queued request for the *same circuit* (up to
 *    maxBatch) into the batch, sharing one cache resolution.
 *    Coalescing does not consume the tenants' deficit -- it is a
 *    cache optimization, not a scheduling decision;
 *  - deadlines & cancellation: each request's CancelToken is
 *    parent-linked to the service-wide shutdown token, so
 *    shutdownNow() stops every in-flight proof (both arms of a hedged
 *    pair) at the next chunk boundary;
 *  - observability: stats() returns one consistent mutex-guarded
 *    snapshot -- counters, shed/hedge breakdowns, per-tenant
 *    aggregates, breaker states and the cache counters all copied
 *    under a single critical section (no field-by-field tearing).
 *
 * Determinism: the scheduler itself is sequential (one drain at a
 * time); parallelism lives inside each proof via the deterministic
 * runtime. The DRR dequeue order is a pure function of the push
 * sequence and the weights. Shedding decisions depend on measured
 * durations and are therefore timing-dependent -- but they only
 * select *which* typed error a request gets, never the bytes of a
 * delivered proof.
 *
 * Fault sites (see faultsim.hh): "service.queue" (admission
 * alloc/launch), "service.shed" (spurious admission shed),
 * "service.hedge" (hedge launch failure -> downgrade to unhedged),
 * "service.breaker" (lying health signal, see backend_health.hh).
 */

#ifndef GZKP_SERVICE_PROOF_SERVICE_HH
#define GZKP_SERVICE_PROOF_SERVICE_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "device/registry.hh"
#include "device/scheduler.hh"
#include "faultsim/faultsim.hh"
#include "runtime/runtime.hh"
#include "service/admission.hh"
#include "service/artifact_cache.hh"
#include "service/backend_health.hh"
#include "service/fair_queue.hh"
#include "status/status.hh"
#include "zkp/prover_pipeline.hh"

namespace gzkp::service {

/**
 * The request RNG. Deliberately the same generator as the testkit's
 * Rng so a seeded service request replays bit-identically against a
 * direct SelfCheckingProver call with the same seed.
 */
using ProofRng = std::mt19937_64;

/** Hedge when the remaining budget < kHedgeFactor * p99(circuit). */
inline constexpr double kHedgeFactor = 1.5;

template <typename Family>
class ProofService
{
  public:
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G16::Proof;
    using ProvingKey = typename G16::ProvingKey;
    using VerifyingKey = typename G16::VerifyingKey;
    using Prover = zkp::SelfCheckingProver<Family>;
    using Cache = ArtifactCache<Family>;
    using Scheduler = device::StageScheduler<Family>;
    using CircuitId = std::size_t;
    using Clock = std::chrono::steady_clock;

    struct Options {
        /** Admission high-watermark: submit() rejects past this. */
        std::size_t maxQueueDepth = 64;
        /** Per-tenant depth bound; 0 = only the shared bound. Needed
            for weighted fairness under saturation: it keeps one
            tenant's backlog from filling the shared queue and
            blinding admission to tenancy. */
        std::size_t maxQueuePerTenant = 0;
        /** Same-circuit requests coalesced per drain. */
        std::size_t maxBatch = 8;
        std::size_t threads = 0;       //!< 0 = GZKP_THREADS default
        std::uint64_t cacheBytes = 0;  //!< 0 = kDefaultCacheBytes

        /** Cross-request backend health with circuit breakers. */
        bool healthTracking = true;
        BackendHealth::Options healthOptions;

        /** Hedged retry on the serial backend. */
        bool hedging = true;
        /** Hedge every request regardless of budget (tests/bench). */
        bool forceHedge = false;

        /** Initial tenant weights (unlisted tenants weigh 1). */
        std::map<std::uint64_t, std::uint64_t> tenantWeights;

        /**
         * Multi-device scheduling: a device topology spec in the
         * registry.hh grammar (e.g. "v100:2,1080ti:1,cpu:4t"). Empty
         * means proofs run single-lane through SelfCheckingProver. A
         * malformed spec throws StatusError at construction. Proof
         * bytes are identical on every topology -- placement never
         * touches the (circuit, witness, seed) -> proof function.
         */
        std::string deviceSpec;
    };

    struct Request {
        CircuitId circuit = 0;
        std::vector<Fr> witness; //!< full assignment z (z[0] = 1)
        std::uint64_t seed = 0;  //!< seeds the proof's (r, s) draw
        /** 0 = no deadline; negative = already expired (rejected). */
        std::chrono::milliseconds timeout{0};
        std::uint64_t tenant = 0; //!< fair-share scheduling id
        int priority = 0;         //!< higher served first, same tenant
    };

    struct Result {
        Status status;
        std::optional<Proof> proof;
        bool cacheHit = false;
        bool cacheBypass = false; //!< proved uncached (miss under pressure)
        zkp::ProverBackend backendUsed = zkp::ProverBackend::Gzkp;
        double queueSeconds = 0;
        double proveSeconds = 0;
        std::uint64_t tenant = 0;
        bool hedged = false;   //!< a secondary backend was launched
        bool hedgeWon = false; //!< the secondary delivered the proof

        /** Device-path placement (-1 = single-lane path). */
        int polyDevice = -1;
        int msmDevice = -1;
        std::size_t deviceStageRetries = 0;
    };

    struct TenantStats {
        std::uint64_t accepted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0; //!< non-ok results (incl. shed)
        std::uint64_t shed = 0;   //!< queue-time + late sheds
    };

    struct Stats {
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t deadlineExpired = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t batches = 0;
        std::uint64_t batchedRequests = 0;
        std::uint64_t cacheBypasses = 0;
        std::size_t queueDepth = 0;
        std::size_t peakQueueDepth = 0;
        double queueSecondsTotal = 0;
        double buildSecondsTotal = 0;
        double proveSecondsTotal = 0;
        typename Cache::Stats cache;

        /** Overload-control breakdown. */
        std::uint64_t shedAdmission = 0; //!< rejected at submit()
        std::uint64_t shedQueued = 0;    //!< dropped doomed at dequeue
        std::uint64_t shedLate = 0;      //!< finished past deadline
        std::uint64_t hedgesLaunched = 0;
        std::uint64_t hedgeWins = 0; //!< secondary beat the primary
        std::uint64_t hedgeLaunchFailures = 0;
        std::uint64_t backendsSkipped = 0; //!< breaker-skipped tiers
        std::map<std::uint64_t, TenantStats> tenants;
        bool healthTracking = false;
        BackendHealth::Snapshot health;

        /** Multi-device scheduling (empty when disabled). */
        bool deviceScheduling = false;
        std::vector<device::DeviceGauges> devices;
        double deviceMakespan = 0; //!< modeled seconds, all devices
        std::uint64_t deviceStageRetries = 0;
    };

    explicit ProofService(Options opt = Options(),
                          zkp::Verifier<Family> verifier = {})
        : opt_(opt), verifier_(std::move(verifier)), cache_(opt.cacheBytes)
    {
        if (opt_.healthTracking)
            health_ = std::make_unique<BackendHealth>(opt_.healthOptions);
        for (const auto &[tenant, weight] : opt_.tenantWeights)
            queue_.setWeight(tenant, weight);
        if (!opt_.deviceSpec.empty()) {
            auto devices = device::parseTopology(opt_.deviceSpec);
            if (!devices.isOk())
                throw StatusError(devices.status());
            scheduler_ =
                std::make_unique<Scheduler>(std::move(*devices), verifier_);
        }
    }

    ~ProofService() { stop(); }

    ProofService(const ProofService &) = delete;
    ProofService &operator=(const ProofService &) = delete;

    /**
     * Register a circuit (proving/verifying key pair + constraint
     * system). Returns the id submit() takes. Registration is
     * append-only; ids stay valid for the service's lifetime.
     */
    CircuitId
    registerCircuit(ProvingKey pk, VerifyingKey vk, zkp::R1cs<Fr> cs)
    {
        std::uint64_t hash = pkContentHash<Family>(pk);
        std::lock_guard<std::mutex> lk(mu_);
        circuits_.push_back(Circuit{std::move(pk), std::move(vk),
                                    std::move(cs), hash});
        return circuits_.size() - 1;
    }

    /** Set (or change) a tenant's fair-share weight. */
    void
    setTenantWeight(std::uint64_t tenant, std::uint64_t weight)
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.setWeight(tenant, weight);
    }

    /**
     * Pre-train the admission cost model (tests and benches: lets a
     * cold service make informed shed decisions immediately).
     */
    void
    trainCostModel(CircuitId circuit, double proveSeconds,
                   std::size_t samples = 1)
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (std::size_t i = 0; i < samples; ++i)
            estimator_.record(circuit, proveSeconds);
    }

    /** The health registry (nullptr when healthTracking is off). */
    BackendHealth *health() { return health_.get(); }

    /**
     * Admit a request. Returns the future that will carry its Result,
     * or a typed rejection: kInvalidArgument for an unknown circuit /
     * wrong witness size, kResourceExhausted past the queue
     * high-watermark or on an injected "service.queue"/"service.shed"
     * fault, kDeadlineExceeded when the deadline has already passed or
     * the cost model says it cannot be met at the current backlog.
     */
    StatusOr<std::future<Result>>
    submit(Request req)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (req.circuit >= circuits_.size()) {
            ++stats_.rejected;
            return invalidArgumentError(
                "service.submit: unknown circuit id " +
                std::to_string(req.circuit));
        }
        if (req.witness.size() != circuits_[req.circuit].pk.numVars) {
            ++stats_.rejected;
            return invalidArgumentError(
                "service.submit: witness size " +
                std::to_string(req.witness.size()) + " != numVars " +
                std::to_string(circuits_[req.circuit].pk.numVars));
        }
        if (req.timeout.count() < 0) {
            // Already expired at the door: shed instead of queueing a
            // prove that can only produce a late error.
            ++stats_.rejected;
            ++stats_.shedAdmission;
            ++stats_.tenants[req.tenant].shed;
            return deadlineExceededError(
                "service.shed: deadline already expired at admission");
        }
        if (queue_.size() >= opt_.maxQueueDepth) {
            ++stats_.rejected;
            return resourceExhaustedError(
                "service.queue: depth " + std::to_string(queue_.size()) +
                " at high-watermark " +
                std::to_string(opt_.maxQueueDepth) + "; retry later");
        }
        if (opt_.maxQueuePerTenant > 0 &&
            queue_.tenantDepth(req.tenant) >= opt_.maxQueuePerTenant) {
            // Per-tenant backpressure: without it, one tenant's
            // backlog fills the shared queue and admission goes
            // tenant-blind -- the DRR weights then have nothing to
            // schedule. Bounding each tenant keeps every backlogged
            // tenant present in the ring, which is what makes the
            // weight ratio show up in goodput.
            ++stats_.rejected;
            ++stats_.tenants[req.tenant].shed;
            return resourceExhaustedError(
                "service.queue: tenant " + std::to_string(req.tenant) +
                " at per-tenant high-watermark " +
                std::to_string(opt_.maxQueuePerTenant) + "; retry later");
        }
        double est = estimator_.estimate(req.circuit);
        if (req.timeout.count() > 0 && est > 0) {
            // Feasibility: the backlog ahead of this request plus its
            // own estimated prove must fit in the deadline budget. A
            // never-observed circuit estimates 0 (optimistic cold
            // start: admit and learn).
            double budget =
                std::chrono::duration<double>(req.timeout).count();
            double eta = queuedCost_ + inFlightCost_ + est;
            if (eta > budget) {
                ++stats_.rejected;
                ++stats_.shedAdmission;
                ++stats_.tenants[req.tenant].shed;
                return deadlineExceededError(
                    "service.shed: infeasible deadline (eta " +
                    std::to_string(eta) + "s > budget " +
                    std::to_string(budget) + "s at current backlog)");
            }
        }
        std::uint64_t idx = seq_++;
        // Injected spurious shed: overload control lying under fault.
        Status shedProbe = statusGuardVoid("service.shed", [&] {
            faultsim::checkAlloc("service.shed", idx);
        });
        if (!shedProbe.isOk()) {
            ++stats_.rejected;
            ++stats_.shedAdmission;
            ++stats_.tenants[req.tenant].shed;
            return shedProbe;
        }
        // The queue fault sites: a failed enqueue allocation (alloc)
        // or a failed dispatch (launch), indexed by admission order.
        Status probe = statusGuardVoid("service.queue", [&] {
            faultsim::checkAlloc("service.queue", idx);
            faultsim::checkLaunch("service.queue", idx);
        });
        if (!probe.isOk()) {
            ++stats_.rejected;
            return probe;
        }
        Pending p;
        p.circuit = req.circuit;
        p.witness = std::move(req.witness);
        p.seed = req.seed;
        p.tenant = req.tenant;
        p.admitted = Clock::now();
        if (req.timeout.count() != 0) {
            p.hasDeadline = true;
            p.deadline = p.admitted + req.timeout;
        }
        p.costEstimate = est;
        queuedCost_ += est;
        std::future<Result> fut = p.promise.get_future();
        queue_.push(req.tenant, req.priority, std::move(p));
        ++stats_.accepted;
        ++stats_.tenants[req.tenant].accepted;
        stats_.queueDepth = queue_.size();
        stats_.peakQueueDepth =
            std::max(stats_.peakQueueDepth, queue_.size());
        cv_.notify_one();
        return fut;
    }

    /**
     * Process one batch synchronously on the calling thread: pop one
     * request by fair share, coalesce same-circuit requests behind
     * it, shed queued work whose deadline is already hopeless, one
     * cache resolution, then prove each survivor. Returns the number
     * of requests resolved (0 when the queue was empty).
     */
    std::size_t
    drainOnce()
    {
        std::vector<Pending> batch;
        std::vector<Pending> doomed;
        const Circuit *circuit = nullptr;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (queue_.empty())
                return 0;
            typename Queue::Item head;
            queue_.pop(head);
            CircuitId cid = head.value.circuit;
            batch.push_back(std::move(head.value));
            auto more = queue_.extractIf(
                [&](const typename Queue::Item &it) {
                    return it.value.circuit == cid;
                },
                opt_.maxBatch - 1);
            for (auto &m : more)
                batch.push_back(std::move(m.value));
            circuit = &circuits_[cid]; // deque: stable under push_back
            ++stats_.batches;
            stats_.batchedRequests += batch.size();
            // Queue-time re-check: work whose deadline has passed or
            // can no longer fit its own prove is shed here, before it
            // costs a prove.
            auto now = Clock::now();
            for (auto it = batch.begin(); it != batch.end();) {
                bool doom = false;
                if (it->hasDeadline) {
                    double remaining = seconds(it->deadline - now);
                    double est = estimator_.estimate(it->circuit);
                    doom = remaining <= 0 || est > remaining;
                }
                if (doom) {
                    doomed.push_back(std::move(*it));
                    it = batch.erase(it);
                } else {
                    ++it;
                }
            }
            for (const Pending &p : batch) {
                queuedCost_ = std::max(0.0, queuedCost_ - p.costEstimate);
                inFlightCost_ += p.costEstimate;
            }
            for (const Pending &p : doomed)
                queuedCost_ = std::max(0.0, queuedCost_ - p.costEstimate);
            stats_.queueDepth = queue_.size();
        }

        for (Pending &p : doomed)
            resolveShed(std::move(p),
                        deadlineExceededError(
                            "service.shed: deadline hopeless at "
                            "dequeue; dropped without proving"));
        if (batch.empty())
            return doomed.size();

        // One artifact resolution for the whole batch.
        auto t0 = Clock::now();
        bool hit = false;
        typename Cache::ArtifactPtr art;
        auto got = cache_.getOrBuild(
            circuit->hash,
            [&] {
                return buildCircuitArtifacts<Family>(
                    circuit->pk, circuit->hash, opt_.threads);
            },
            &hit);
        double build_s = seconds(Clock::now() - t0);
        if (got.isOk())
            art = std::move(*got);
        {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.buildSecondsTotal += build_s;
        }

        if (scheduler_ != nullptr) {
            processBatchOnDevices(batch, *circuit, art, hit);
        } else {
            for (Pending &p : batch)
                processOne(p, *circuit, art, hit);
        }
        return batch.size() + doomed.size();
    }

    /** Drain until the queue is empty; total requests processed. */
    std::size_t
    drain()
    {
        std::size_t total = 0, n = 0;
        while ((n = drainOnce()) != 0)
            total += n;
        return total;
    }

    /** Start the background scheduler thread (idempotent). */
    void
    start()
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (worker_.joinable())
            return;
        stopping_ = false;
        worker_ = std::thread([this] { workerLoop(); });
    }

    /**
     * Graceful stop: the scheduler finishes everything already queued
     * (fast when shutdownNow() cancelled them), then joins. No-op
     * when the scheduler is not running.
     */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!worker_.joinable())
                return;
            stopping_ = true;
        }
        cv_.notify_all();
        worker_.join();
        worker_ = std::thread();
    }

    /**
     * Cancel everything: in-flight proofs (both arms of a hedged
     * pair) stop at the next chunk boundary, queued requests resolve
     * with kCancelled (their futures are always fulfilled, never
     * abandoned).
     */
    void
    shutdownNow()
    {
        shutdown_.cancel();
        bool running;
        {
            std::lock_guard<std::mutex> lk(mu_);
            running = worker_.joinable();
        }
        if (running)
            stop();
        else
            drain(); // flush queued promises with kCancelled
    }

    /**
     * One consistent snapshot: every counter, the per-tenant
     * aggregates and the cache stats are copied under a single
     * critical section; breaker states are sampled from the health
     * registry's own lock immediately after.
     */
    Stats
    stats() const
    {
        Stats s;
        {
            std::lock_guard<std::mutex> lk(mu_);
            s = stats_;
            s.queueDepth = queue_.size();
        }
        s.cache = cache_.stats();
        if (health_ != nullptr) {
            s.healthTracking = true;
            s.health = health_->snapshot();
        }
        if (scheduler_ != nullptr) {
            s.deviceScheduling = true;
            typename Scheduler::Stats ds = scheduler_->stats();
            s.devices = std::move(ds.devices);
            s.deviceMakespan = ds.modeledMakespan;
            s.deviceStageRetries = ds.stageRetries;
        }
        return s;
    }

    Cache &cache() { return cache_; }

    /** The device scheduler (nullptr when no topology configured). */
    Scheduler *deviceScheduler() { return scheduler_.get(); }

  private:
    struct Pending;
    using Queue = FairShareQueue<Pending>;

    struct Circuit {
        ProvingKey pk;
        VerifyingKey vk;
        zkp::R1cs<Fr> cs;
        std::uint64_t hash = 0;
    };

    struct Pending {
        CircuitId circuit = 0;
        std::vector<Fr> witness;
        std::uint64_t seed = 0;
        std::uint64_t tenant = 0;
        Clock::time_point admitted;
        bool hasDeadline = false;
        Clock::time_point deadline;
        double costEstimate = 0;
        std::promise<Result> promise;
    };

    static double
    seconds(Clock::duration d)
    {
        return std::chrono::duration<double>(d).count();
    }

    /** Resolve a request shed at dequeue (never proved). */
    void
    resolveShed(Pending p, Status why)
    {
        Result res;
        res.status = std::move(why);
        res.tenant = p.tenant;
        res.queueSeconds = seconds(Clock::now() - p.admitted);
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.failed;
            ++stats_.shedQueued;
            ++stats_.deadlineExpired;
            TenantStats &t = stats_.tenants[p.tenant];
            ++t.failed;
            ++t.shed;
            stats_.queueSecondsTotal += res.queueSeconds;
        }
        p.promise.set_value(std::move(res));
    }

    void
    processOne(Pending &p, const Circuit &c,
               const typename Cache::ArtifactPtr &art, bool hit)
    {
        Result res;
        res.cacheHit = hit && art != nullptr;
        res.cacheBypass = art == nullptr;
        res.tenant = p.tenant;
        auto start = Clock::now();
        res.queueSeconds = seconds(start - p.admitted);

        runtime::CancelToken token;
        token.linkParent(&shutdown_);
        if (p.hasDeadline)
            token.setDeadline(p.deadline);

        typename Prover::Options popt;
        popt.threads = opt_.threads;
        popt.monitor = health_.get();
        if (art) {
            popt.artifacts = &art->msm;
            popt.domain = &art->domain;
        }

        // Hedge decision: a request whose remaining budget is inside
        // the tail of the cost distribution races a second backend.
        bool hedge = false;
        std::optional<zkp::ProverBackend> secondary;
        if (opt_.hedging && !shutdown_.cancelled()) {
            double p99;
            {
                std::lock_guard<std::mutex> lk(mu_);
                p99 = estimator_.quantile(p.circuit, 0.99);
            }
            if (opt_.forceHedge) {
                hedge = true;
            } else if (p.hasDeadline && p99 > 0) {
                double remaining = seconds(p.deadline - start);
                hedge = remaining > 0 && remaining < kHedgeFactor * p99;
            }
            if (hedge) {
                secondary = pickSecondary();
                if (!secondary)
                    hedge = false;
            }
            if (hedge) {
                std::uint64_t hidx;
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    hidx = hedgeSeq_++;
                }
                // Injected hedge-launch failure: downgrade to the
                // unhedged path (a hedge is an optimization; losing
                // it must never fail the request).
                Status probe = statusGuardVoid("service.hedge", [&] {
                    faultsim::checkLaunch("service.hedge", hidx);
                });
                if (!probe.isOk()) {
                    hedge = false;
                    std::lock_guard<std::mutex> lk(mu_);
                    ++stats_.hedgeLaunchFailures;
                }
            }
        }

        typename Prover::Report rep;
        if (!hedge) {
            popt.cancel = &token;
            Prover prover(popt, verifier_);
            ProofRng rng(p.seed);
            StatusOr<Proof> r =
                prover.prove(c.pk, c.vk, c.cs, p.witness, rng, &rep);
            if (r.isOk())
                res.proof = std::move(*r);
            else
                res.status = r.status();
            res.backendUsed = rep.backendUsed;
        } else {
            runHedged(p, c, popt, token, *secondary, res, rep);
        }
        res.proveSeconds = seconds(Clock::now() - start);
        finishResult(p, std::move(res), &rep);
    }

    /**
     * Shared tail of both proving paths: the late drop, the stats
     * bookkeeping, and the promise fulfilment.
     *
     * Late drop: a proof that finished after its deadline is a typed
     * error, never a delivered proof -- the service hands out zero
     * post-deadline proofs, structurally.
     */
    void
    finishResult(Pending &p, Result res,
                 const typename Prover::Report *rep = nullptr)
    {
        bool late = false;
        if (res.status.isOk() && p.hasDeadline &&
            Clock::now() > p.deadline) {
            late = true;
            res.proof.reset();
            res.status = deadlineExceededError(
                "service.shed: proof completed after its deadline; "
                "dropped");
        }

        {
            std::lock_guard<std::mutex> lk(mu_);
            TenantStats &t = stats_.tenants[p.tenant];
            if (res.status.isOk()) {
                ++stats_.completed;
                ++t.completed;
                estimator_.record(p.circuit, res.proveSeconds);
            } else {
                ++stats_.failed;
                ++t.failed;
                if (res.status.code() == StatusCode::kDeadlineExceeded)
                    ++stats_.deadlineExpired;
                if (res.status.code() == StatusCode::kCancelled)
                    ++stats_.cancelled;
                if (late) {
                    ++stats_.shedLate;
                    ++t.shed;
                }
            }
            if (res.hedged) {
                ++stats_.hedgesLaunched;
                if (res.hedgeWon)
                    ++stats_.hedgeWins;
            }
            if (rep != nullptr)
                stats_.backendsSkipped += rep->backendsSkipped;
            if (res.cacheBypass)
                ++stats_.cacheBypasses;
            stats_.queueSecondsTotal += res.queueSeconds;
            stats_.proveSecondsTotal += res.proveSeconds;
            inFlightCost_ =
                std::max(0.0, inFlightCost_ - p.costEstimate);
        }
        p.promise.set_value(std::move(res));
    }

    /**
     * The multi-device path: submit the whole same-circuit batch to
     * the stage scheduler and collect the futures. Submitting first
     * and collecting after is what buys the pipeline overlap -- the
     * POLY of request k+1 runs while the MSM of request k is still
     * in flight on another device. The artifact pointer and the
     * per-request cancel tokens outlive every job because both live
     * in this frame until the last future resolves.
     */
    void
    processBatchOnDevices(std::vector<Pending> &batch, const Circuit &c,
                          const typename Cache::ArtifactPtr &art,
                          bool hit)
    {
        struct InFlight {
            std::unique_ptr<runtime::CancelToken> token;
            std::future<typename Scheduler::Result> fut;
            Clock::time_point start;
            Status submitError;
            bool submitted = false;
        };
        std::vector<InFlight> flight(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Pending &p = batch[i];
            InFlight &f = flight[i];
            f.start = Clock::now();
            f.token = std::make_unique<runtime::CancelToken>();
            f.token->linkParent(&shutdown_);
            if (p.hasDeadline)
                f.token->setDeadline(p.deadline);
            typename Scheduler::Job job;
            job.pk = &c.pk;
            job.vk = &c.vk;
            job.cs = &c.cs;
            job.witness = std::move(p.witness);
            job.seed = p.seed;
            if (art) {
                job.artifacts = &art->msm;
                job.domain = &art->domain;
            }
            job.cancel = f.token.get();
            auto sub = scheduler_->submit(std::move(job));
            if (sub.isOk()) {
                f.fut = std::move(*sub);
                f.submitted = true;
            } else {
                f.submitError = sub.status();
            }
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Pending &p = batch[i];
            InFlight &f = flight[i];
            Result res;
            res.cacheHit = hit && art != nullptr;
            res.cacheBypass = art == nullptr;
            res.tenant = p.tenant;
            res.queueSeconds = seconds(f.start - p.admitted);
            if (f.submitted) {
                typename Scheduler::Result r = f.fut.get();
                res.status = std::move(r.status);
                res.proof = std::move(r.proof);
                res.polyDevice = r.polyDevice;
                res.msmDevice = r.msmDevice;
                res.deviceStageRetries = r.stageRetries;
            } else {
                res.status = f.submitError;
            }
            res.proveSeconds = seconds(Clock::now() - f.start);
            finishResult(p, std::move(res));
        }
    }

    /**
     * The hedge's backend: serial, the one tier distinct from the
     * primary ladder's GZKP start; nullopt when its breaker denies it.
     */
    std::optional<zkp::ProverBackend>
    pickSecondary()
    {
        if (health_ != nullptr &&
            !health_->allow(zkp::ProverBackend::Serial))
            return std::nullopt;
        return zkp::ProverBackend::Serial;
    }

    /**
     * Race the primary ladder against `secondary`; first valid proof
     * wins and cancels the loser through its child token. Proof bytes
     * are a pure function of (circuit, witness, seed), so the winner
     * identity never changes the delivered bytes.
     */
    void
    runHedged(Pending &p, const Circuit &c,
              const typename Prover::Options &base,
              runtime::CancelToken &token,
              zkp::ProverBackend secondary, Result &res,
              typename Prover::Report &rep)
    {
        struct Arm {
            std::optional<Proof> proof;
            Status status;
            typename Prover::Report rep;
        };
        Arm arms[2];
        runtime::CancelToken armTok[2];
        armTok[0].linkParent(&token);
        armTok[1].linkParent(&token);

        std::mutex hm;
        int winner = -1;

        auto run = [&](int i, zkp::ProverBackend startBackend) {
            typename Prover::Options po = base;
            po.start = startBackend;
            po.cancel = &armTok[i];
            Prover prover(po, verifier_);
            ProofRng rng(p.seed);
            StatusOr<Proof> r = prover.prove(c.pk, c.vk, c.cs,
                                             p.witness, rng,
                                             &arms[i].rep);
            std::lock_guard<std::mutex> hlk(hm);
            if (r.isOk()) {
                arms[i].proof = std::move(*r);
                if (winner < 0) {
                    winner = i;
                    armTok[1 - i].cancel(); // loser stops cooperatively
                }
            } else {
                arms[i].status = r.status();
            }
        };

        std::thread sec([&] { run(1, secondary); });
        run(0, base.start);
        sec.join();

        res.hedged = true;
        if (winner >= 0) {
            res.proof = std::move(arms[winner].proof);
            res.backendUsed = arms[winner].rep.backendUsed;
            res.hedgeWon = winner == 1;
            rep = arms[winner].rep;
        } else {
            // Both failed: report the primary's error (the secondary
            // was only ever a latency optimization).
            res.status = arms[0].status;
            res.backendUsed = arms[0].rep.backendUsed;
            rep = arms[0].rep;
        }
        rep.backendsSkipped =
            arms[0].rep.backendsSkipped + arms[1].rep.backendsSkipped;
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
            if (queue_.empty() && stopping_)
                return;
            lk.unlock();
            drainOnce();
            lk.lock();
        }
    }

    Options opt_;
    zkp::Verifier<Family> verifier_;
    Cache cache_;
    runtime::CancelToken shutdown_;
    std::unique_ptr<BackendHealth> health_; //!< null: healthTracking off

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Circuit> circuits_; //!< deque: references stay valid
    Queue queue_;
    CostEstimator estimator_;
    double queuedCost_ = 0;   //!< estimated seconds queued
    double inFlightCost_ = 0; //!< estimated seconds being proved
    std::uint64_t seq_ = 0;
    std::uint64_t hedgeSeq_ = 0;
    bool stopping_ = false;
    std::thread worker_;
    Stats stats_;
    /** Declared last: destroyed first, while the circuits and the
        cache its in-flight jobs borrow from are still alive. */
    std::unique_ptr<Scheduler> scheduler_;
};

/**
 * The production configuration: a BN254 service whose self-check is
 * the real pairing verifier. (unique_ptr because the service owns a
 * mutex and a thread and is therefore immovable.)
 */
inline std::unique_ptr<ProofService<zkp::Bn254Family>>
makeBn254ProofService(
    typename ProofService<zkp::Bn254Family>::Options opt = {})
{
    return std::make_unique<ProofService<zkp::Bn254Family>>(
        opt, zkp::verifyBn254);
}

} // namespace gzkp::service

#endif // GZKP_SERVICE_PROOF_SERVICE_HH
