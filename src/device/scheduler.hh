/**
 * @file
 * The per-stage placement scheduler: pipelined proof execution across
 * a heterogeneous device fleet.
 *
 * One proof is two schedulable stages (cost_model.hh): POLY (seven
 * NTTs) and MSM (five MSMs). submit() places *both* stages onto
 * devices immediately, against per-device virtual clocks:
 *
 *   finish(stage, d) = max(busyUntil[d], depReady(stage)) + est(d)
 *
 * where depReady of a job's MSM is its POLY's planned finish. The
 * stage goes to the admitted device with the earliest planned finish
 * (ties to the lower device index), so for a fixed submission order
 * the planned schedule is a pure function of the topology and the
 * estimates. Because the MSM of proof k and the POLY of proof k+1
 * land on different devices whenever that finishes earlier, the
 * pipeline overlap the paper gets from streaming proofs through a
 * GPU falls out of the placement rule -- no special-case code.
 *
 * Estimates start from the gpusim roofline seed (CostModel) and are
 * refined online by an EWMA *ratio* (observed modeled seconds /
 * seeded estimate) per (device, stage), the serving layer's
 * CostEstimator idiom. A card inflated by `device.slow` keeps
 * reporting ratios > 1 and organically loses work to healthy peers.
 *
 * Execution: one host worker thread per device drains that device's
 * FIFO queue. Functional execution is the byte-exact staged Groth16
 * helpers (polyStage / msmStage / assembleProof), so the delivered
 * proof is a pure function of (circuit, witness, seed) -- never of
 * the placement, the topology, or any routing/timing fault. An MSM
 * task blocks until its job's POLY result is published; FIFO order +
 * "POLY is always placed before its MSM" guarantees the globally
 * earliest-placed pending task is runnable, so the fleet cannot
 * deadlock. Stage failures (device.fail / device.mem, or a real
 * fault) are retried inline on a re-placed device with a fresh fault
 * epoch, bounded by kMaxStageAttempts (an MSM retry after a failed
 * self-check recomputes POLY's h too, since either stage may have
 * corrupted the proof). Every assembled proof passes
 * zkp::selfCheckProof() before it is delivered. Each device is a
 * failure domain with its own SlidingBreaker (service/breaker.hh),
 * held in its PerDevice slot under the scheduler mutex, so a
 * persistently failing card is quarantined while the rest keep
 * serving. Cooperative stops and caller bugs never indict a device
 * (service::neutralStatus).
 */

#ifndef GZKP_DEVICE_SCHEDULER_HH
#define GZKP_DEVICE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/cost_model.hh"
#include "device/device.hh"
#include "faultsim/faultsim.hh"
#include "ntt/domain.hh"
#include "runtime/runtime.hh"
#include "service/admission.hh"
#include "service/breaker.hh"
#include "status/status.hh"
#include "zkp/groth16.hh"
#include "zkp/prover_pipeline.hh"

namespace gzkp::device {

/** Modeled-time inflation of a stage hit by `device.slow`. */
inline constexpr double kSlowFactor = 8.0;

/** Per-device bound on queued stages; submit() blocks at it. */
inline constexpr std::size_t kMaxQueuedStages = 8;

/** Total placements of one stage (first try + retries). */
inline constexpr std::size_t kMaxStageAttempts = 3;

/**
 * One device's observable state (ProofService::stats() re-exports
 * these as the per-device gauges). Deliberately not a template.
 */
struct DeviceGauges {
    std::string name;
    DeviceKind kind = DeviceKind::CpuWorker;
    std::size_t queueDepth = 0;     //!< stages queued, not started
    std::size_t inFlight = 0;       //!< stages executing now (0/1)
    std::uint64_t polyCompleted = 0;
    std::uint64_t msmCompleted = 0;
    std::uint64_t failures = 0;     //!< non-neutral stage failures
    std::uint64_t quarantines = 0;  //!< breaker opens
    std::uint64_t slowHits = 0;     //!< device.slow inflations
    double modeledBusySeconds = 0;  //!< sum of placed stage estimates
    service::BreakerState breaker = service::BreakerState::Closed;
    std::uint64_t costSamples = 0;  //!< EWMA refinement samples
};

template <typename Family>
class StageScheduler
{
  public:
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G16::Proof;
    using ProvingKey = typename G16::ProvingKey;
    using VerifyingKey = typename G16::VerifyingKey;
    using MsmArtifacts = typename G16::MsmArtifacts;

    /**
     * One proof job. Pointer fields are borrowed: the caller keeps
     * them (and the cancel token) alive until the future resolves.
     */
    struct Job {
        const ProvingKey *pk = nullptr;
        const VerifyingKey *vk = nullptr; //!< optional (self-check)
        const zkp::R1cs<Fr> *cs = nullptr;
        std::vector<Fr> witness;
        std::uint64_t seed = 0; //!< seeds the (r, s) draw
        /** Optional warm path: Algorithm-1 tables + twiddle domain. */
        const MsmArtifacts *artifacts = nullptr;
        const ntt::Domain<Fr> *domain = nullptr;
        runtime::CancelToken *cancel = nullptr;
    };

    struct Result {
        Status status;
        std::optional<Proof> proof;
        int polyDevice = -1; //!< index into devices()
        int msmDevice = -1;
        double polyModelSeconds = 0; //!< placed estimate (incl. slow)
        double msmModelSeconds = 0;
        std::size_t stageRetries = 0;
    };

    struct Stats {
        std::vector<DeviceGauges> devices;
        double modeledMakespan = 0; //!< max planned device finish
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t stageRetries = 0;
    };

    explicit StageScheduler(std::vector<DeviceSpec> devices,
                            zkp::Verifier<Family> verifier = {})
        : devices_(std::move(devices)), verifier_(std::move(verifier)),
          dev_(devices_.size())
    {
        if (devices_.empty())
            throw std::invalid_argument(
                "StageScheduler: empty device topology");
        for (std::size_t d = 0; d < devices_.size(); ++d)
            workers_.emplace_back([this, d] { workerLoop(d); });
    }

    ~StageScheduler() { stop(); }

    StageScheduler(const StageScheduler &) = delete;
    StageScheduler &operator=(const StageScheduler &) = delete;

    const std::vector<DeviceSpec> &devices() const { return devices_; }

    /**
     * Place both stages and enqueue them. Blocks while either chosen
     * device's queue is at kMaxQueuedStages (bounded pipelining depth).
     */
    StatusOr<std::future<Result>>
    submit(Job job)
    {
        if (job.pk == nullptr || job.cs == nullptr)
            return invalidArgumentError(
                "device.submit: job without proving key or circuit");
        if (job.witness.size() != job.pk->numVars)
            return invalidArgumentError(
                "device.submit: witness size " +
                std::to_string(job.witness.size()) + " != numVars " +
                std::to_string(job.pk->numVars));
        if (job.artifacts != nullptr && job.domain == nullptr)
            return invalidArgumentError(
                "device.submit: artifacts without a twiddle domain");

        auto js = std::make_shared<JobState>();
        js->job = std::move(job);
        js->shape = CostModel<Family>::shapeOf(*js->job.pk);
        std::future<Result> fut = js->promise.get_future();

        std::unique_lock<std::mutex> lk(mu_);
        if (stopping_)
            return unavailableError("device.submit: scheduler stopped");
        // Place POLY, then MSM with the POLY finish as its dependency
        // release time. Both placements are committed under one lock
        // hold, so the planned schedule is a function of submission
        // order alone.
        Placement poly = placeLocked(StageKind::Poly, js->shape, 0.0,
                                     /*avoid=*/-1);
        Placement msm = placeLocked(StageKind::Msm, js->shape,
                                    poly.finish, /*avoid=*/-1);
        cv_.wait(lk, [&] {
            return stopping_ ||
                (dev_[poly.device].queue.size() < kMaxQueuedStages &&
                 dev_[msm.device].queue.size() < kMaxQueuedStages);
        });
        if (stopping_)
            return unavailableError("device.submit: scheduler stopped");
        commitLocked(poly, StageKind::Poly, js);
        commitLocked(msm, StageKind::Msm, js);
        js->result.polyDevice = int(poly.device);
        js->result.msmDevice = int(msm.device);
        js->result.polyModelSeconds = poly.estimate;
        js->result.msmModelSeconds = msm.estimate;
        ++pendingJobs_;
        ++submitted_;
        lk.unlock();
        cv_.notify_all();
        return fut;
    }

    /** Block until every submitted job has resolved. */
    void
    waitIdle()
    {
        std::unique_lock<std::mutex> lk(mu_);
        idleCv_.wait(lk, [&] { return pendingJobs_ == 0; });
    }

    /** Graceful stop: drain all queues, then join the workers. */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stopping_)
                return;
            stopping_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Stats s;
        s.modeledMakespan = makespan_;
        s.submitted = submitted_;
        s.completed = completed_;
        s.failed = failed_;
        s.stageRetries = stageRetries_;
        s.devices.reserve(dev_.size());
        for (std::size_t d = 0; d < dev_.size(); ++d) {
            const PerDevice &pd = dev_[d];
            DeviceGauges g = pd.gauges;
            g.name = devices_[d].name;
            g.kind = devices_[d].kind;
            g.queueDepth = pd.queue.size();
            g.inFlight = pd.inFlight ? 1 : 0;
            g.breaker = pd.breaker.state();
            g.quarantines = pd.breaker.opens();
            g.failures = pd.breaker.failures();
            g.costSamples = estimator_.samples(estKey(d, StageKind::Poly)) +
                estimator_.samples(estKey(d, StageKind::Msm));
            s.devices.push_back(std::move(g));
        }
        return s;
    }

  private:
    struct JobState {
        Job job;
        ProofShape shape;
        std::promise<Result> promise;
        Result result;

        std::mutex mu;
        std::condition_variable cv;
        bool polyDone = false;
        bool failed = false; //!< terminal failure already recorded
        std::vector<Fr> h;
        Fr r, s;
    };
    using JobPtr = std::shared_ptr<JobState>;

    struct StageTask {
        JobPtr js;
        StageKind kind = StageKind::Poly;
        std::uint64_t execSeq = 0; //!< fault-probe index
        double estimate = 0;       //!< placed modeled seconds
        bool redoPoly = false;     //!< MSM retry recomputes h first
    };

    struct PerDevice {
        std::deque<StageTask> queue;
        bool inFlight = false;
        double busyUntil = 0; //!< virtual clock (planned schedule)
        DeviceGauges gauges;  //!< counters only; identity filled late
        /** This failure domain's breaker; fed *modeled* stage times
            (wall clock never reaches placement). */
        service::SlidingBreaker breaker;
    };

    struct Placement {
        std::size_t device = 0;
        double start = 0;
        double finish = 0;
        double estimate = 0;
        bool slow = false;
    };

    std::size_t
    estKey(std::size_t device, StageKind stage) const
    {
        return device * kStageKindCount + std::size_t(stage);
    }

    /** Current estimate: roofline seed scaled by the learned ratio. */
    double
    estimateLocked(std::size_t d, StageKind stage,
                   const ProofShape &shape) const
    {
        double seed = CostModel<Family>::seedSeconds(stage, shape,
                                                     devices_[d]);
        std::size_t key = estKey(d, stage);
        if (estimator_.samples(key) > 0)
            seed *= estimator_.estimate(key);
        return seed;
    }

    /**
     * Choose the device with the earliest planned finish among those
     * the breakers admit (all devices when every breaker denies --
     * never strand a job). Consumes breaker denials, which is what
     * drives an open breaker's cooldown toward its half-open probe.
     */
    Placement
    placeLocked(StageKind stage, const ProofShape &shape,
                double depReady, int avoid)
    {
        std::vector<std::size_t> admitted;
        for (std::size_t d = 0; d < dev_.size(); ++d)
            if (dev_[d].breaker.allow())
                admitted.push_back(d);
        if (admitted.empty())
            for (std::size_t d = 0; d < dev_.size(); ++d)
                admitted.push_back(d);
        if (avoid >= 0 && admitted.size() > 1) {
            for (auto it = admitted.begin(); it != admitted.end(); ++it)
                if (*it == std::size_t(avoid)) {
                    admitted.erase(it);
                    break;
                }
        }
        Placement best;
        bool first = true;
        for (std::size_t d : admitted) {
            double est = estimateLocked(d, stage, shape);
            // The throttled-card fault: decided at placement time from
            // the seeded plan, so the planned schedule (and the EWMA
            // that learns from it) sees the slowdown. Timing-only.
            bool slow = faultsim::active() &&
                faultsim::shouldFire(faultsim::FaultKind::Launch,
                                     devices_[d].slowSite.c_str(),
                                     placeSeq_);
            double eff = slow ? est * kSlowFactor : est;
            double start = std::max(dev_[d].busyUntil, depReady);
            double finish = start + eff;
            if (first || finish < best.finish) {
                first = false;
                best.device = d;
                best.start = start;
                best.finish = finish;
                best.estimate = eff;
                best.slow = slow;
            }
        }
        ++placeSeq_;
        return best;
    }

    /** Advance the chosen device's virtual clock and enqueue. */
    void
    commitLocked(const Placement &p, StageKind stage, const JobPtr &js)
    {
        PerDevice &pd = dev_[p.device];
        pd.busyUntil = p.finish;
        pd.gauges.modeledBusySeconds += p.estimate;
        if (p.slow)
            ++pd.gauges.slowHits;
        makespan_ = std::max(makespan_, p.finish);
        StageTask t;
        t.js = js;
        t.kind = stage;
        t.execSeq = execSeq_++;
        t.estimate = p.estimate;
        pd.queue.push_back(std::move(t));
    }

    void
    workerLoop(std::size_t d)
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            cv_.wait(lk, [&] {
                return stopping_ || !dev_[d].queue.empty();
            });
            if (dev_[d].queue.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            StageTask task = std::move(dev_[d].queue.front());
            dev_[d].queue.pop_front();
            dev_[d].inFlight = true;
            lk.unlock();
            cv_.notify_all(); // queue space freed: unblock submit()
            if (task.kind == StageKind::Poly)
                runPoly(d, task);
            else
                runMsm(d, task);
            lk.lock();
            dev_[d].inFlight = false;
        }
    }

    /**
     * Execute one stage attempt functionally on this worker thread.
     * `d` only selects the failure domain (fault sites, breaker,
     * thread budget) -- the math is device-independent.
     */
    Status
    attemptStage(std::size_t d, StageTask &task)
    {
        JobState &js = *task.js;
        const DeviceSpec &spec = devices_[d];
        const char *stageName = task.kind == StageKind::Poly
            ? "device.poly"
            : "device.msm";
        Status st = statusGuardVoid(stageName, [&] {
            std::optional<runtime::CancelScope> scope;
            if (js.job.cancel != nullptr)
                scope.emplace(js.job.cancel);
            faultsim::checkLaunch(spec.failSite.c_str(), task.execSeq);
            faultsim::checkAlloc(spec.memSite.c_str(), task.execSeq);
            if (js.job.cancel != nullptr)
                js.job.cancel->throwIfStopped();
            if (task.kind == StageKind::Poly) {
                std::vector<Fr> h = polyOutput(js.job);
                // (r, s) come from the request rng, which feeds
                // nothing else -- drawing them here matches the
                // single-lane prove() stream draw for draw.
                std::mt19937_64 rng(js.job.seed);
                Fr r = Fr::random(rng);
                Fr s = Fr::random(rng);
                std::lock_guard<std::mutex> jlk(js.mu);
                js.h = std::move(h);
                js.r = r;
                js.s = s;
            } else {
                if (task.redoPoly)
                    js.h = polyOutput(js.job);
                typename G16::MsmOutputs m;
                if (js.job.artifacts != nullptr) {
                    m = G16::msmStageWithArtifacts(
                        *js.job.pk, *js.job.artifacts, js.job.witness,
                        js.h, spec.threads);
                } else {
                    m = G16::template msmStage<zkp::GzkpMsmPolicy>(
                        *js.job.pk, js.job.witness, js.h, spec.threads);
                }
                Proof p = G16::assembleProof(*js.job.pk, m, js.r, js.s);
                Status chk = zkp::selfCheckProof<Family>(
                    *js.job.pk, js.job.vk, js.job.witness, p, verifier_);
                if (!chk.isOk())
                    throw StatusError(chk);
                js.result.proof = std::move(p);
            }
        });
        return st;
    }

    /** The POLY stage's h, over the job's cached domain if any. */
    static std::vector<Fr>
    polyOutput(const Job &job)
    {
        if (job.domain != nullptr)
            return G16::polyStage(*job.pk, *job.cs, job.witness,
                                  *job.domain);
        ntt::Domain<Fr> dom(job.pk->domainLog);
        return G16::polyStage(*job.pk, *job.cs, job.witness, dom);
    }

    /**
     * Run one stage with inline bounded retries. A retryable failure
     * re-places the stage (preferring a different device, with a
     * fresh fault epoch) but executes on *this* worker thread --
     * queues stay strictly FIFO in placement order, which is the
     * no-deadlock invariant.
     */
    Status
    runStageWithRetries(std::size_t d, StageTask &task, int *devUsed,
                        double *estUsed)
    {
        std::size_t dev = d;
        Status st;
        for (std::size_t attempt = 0;; ++attempt) {
            st = attemptStage(dev, task);
            std::lock_guard<std::mutex> lk(mu_);
            service::SlidingBreaker &breaker = dev_[dev].breaker;
            breaker.countAttempt();
            if (!service::neutralStatus(st.code()))
                breaker.record(st.isOk(), task.estimate);
            if (st.isOk() || !zkp::retryableStatus(st.code()) ||
                attempt + 1 >= kMaxStageAttempts) {
                *devUsed = int(dev);
                *estUsed = task.estimate;
                recordSampleLocked(dev, task);
                return st;
            }
            // Transient injected faults clear on a new epoch;
            // persistent ones keep firing and push the stage off the
            // device as its breaker accumulates failures.
            faultsim::advanceEpoch();
            // The MSM self-check cannot tell which stage corrupted
            // the proof, so a data-loss retry recomputes h as well.
            if (task.kind == StageKind::Msm &&
                st.code() == StatusCode::kDataLoss)
                task.redoPoly = true;
            ++stageRetries_;
            ++task.js->result.stageRetries;
            Placement p = placeLocked(task.kind, task.js->shape,
                                      dev_[dev].busyUntil, int(dev));
            dev = p.device;
            dev_[dev].busyUntil = p.finish;
            dev_[dev].gauges.modeledBusySeconds += p.estimate;
            makespan_ = std::max(makespan_, p.finish);
            task.estimate = p.estimate;
            task.execSeq = execSeq_++;
        }
    }

    /** Feed the EWMA ratio (observed modeled / seeded estimate). */
    void
    recordSampleLocked(std::size_t dev, const StageTask &task)
    {
        double seed = CostModel<Family>::seedSeconds(
            task.kind, task.js->shape, devices_[dev]);
        if (seed > 0)
            estimator_.record(estKey(dev, task.kind),
                              task.estimate / seed);
    }

    void
    runPoly(std::size_t d, StageTask &task)
    {
        int devUsed = int(d);
        double estUsed = task.estimate;
        Status st = runStageWithRetries(d, task, &devUsed, &estUsed);
        JobState &js = *task.js;
        {
            std::lock_guard<std::mutex> jlk(js.mu);
            js.result.polyDevice = devUsed;
            js.result.polyModelSeconds = estUsed;
            if (st.isOk()) {
                js.polyDone = true;
            } else {
                js.failed = true;
                js.result.status =
                    st.withContext("device.poly[" +
                                   devices_[devUsed].name + "]");
            }
        }
        js.cv.notify_all();
        if (st.isOk()) {
            std::lock_guard<std::mutex> lk(mu_);
            ++dev_[std::size_t(devUsed)].gauges.polyCompleted;
        }
    }

    void
    runMsm(std::size_t d, StageTask &task)
    {
        JobState &js = *task.js;
        {
            // Wait for the POLY publication (or its terminal failure).
            std::unique_lock<std::mutex> jlk(js.mu);
            js.cv.wait(jlk, [&] { return js.polyDone || js.failed; });
            if (js.failed) {
                Result res = std::move(js.result);
                jlk.unlock();
                resolve(task.js, std::move(res));
                return;
            }
        }
        int devUsed = int(d);
        double estUsed = task.estimate;
        Status st = runStageWithRetries(d, task, &devUsed, &estUsed);
        Result res;
        {
            std::lock_guard<std::mutex> jlk(js.mu);
            js.result.msmDevice = devUsed;
            js.result.msmModelSeconds = estUsed;
            if (!st.isOk()) {
                js.result.proof.reset();
                js.result.status =
                    st.withContext("device.msm[" +
                                   devices_[devUsed].name + "]");
            }
            res = std::move(js.result);
        }
        if (st.isOk()) {
            std::lock_guard<std::mutex> lk(mu_);
            ++dev_[std::size_t(devUsed)].gauges.msmCompleted;
        }
        resolve(task.js, std::move(res));
    }

    void
    resolve(const JobPtr &js, Result res)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (res.status.isOk())
                ++completed_;
            else
                ++failed_;
            --pendingJobs_;
        }
        js->promise.set_value(std::move(res));
        idleCv_.notify_all();
    }

    std::vector<DeviceSpec> devices_;
    zkp::Verifier<Family> verifier_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::vector<PerDevice> dev_;
    service::CostEstimator estimator_;
    double makespan_ = 0;
    std::uint64_t placeSeq_ = 0;
    std::uint64_t execSeq_ = 0;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t stageRetries_ = 0;
    std::size_t pendingJobs_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace gzkp::device

#endif // GZKP_DEVICE_SCHEDULER_HH
