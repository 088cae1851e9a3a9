/**
 * @file
 * Service-wide backend health registry with circuit breakers.
 *
 * ZK-Flex (PAPERS.md) motivates treating proving backends as
 * independently failing accelerators behind a scheduler.
 * SelfCheckingProver demotes down the GZKP -> serial ladder, but on
 * its own the decision is per request: a backend browned out for
 * minutes would still eat kAttemptsPerBackend failed attempts on
 * *every* request. BackendHealth turns demotion into a learned,
 * service-wide decision:
 *
 *  - per-backend sliding window of the most recent attempt outcomes
 *    and latencies (failures are statuses that blame the backend --
 *    kUnavailable, kResourceExhausted, kDataLoss, kInternal;
 *    cooperative stops and caller bugs are neutral, see
 *    neutralStatus() in breaker.hh);
 *  - a circuit breaker per backend (the SlidingBreaker state machine,
 *    breaker.hh): Closed -> Open on windowed failure rate -> HalfOpen
 *    probe after a deterministic denial-counted cooldown -> Closed on
 *    probe success. The same core guards the multi-device scheduler's
 *    per-device failure domains (src/device/scheduler.hh);
 *  - implements zkp::BackendMonitor, so the registry plugs straight
 *    into SelfCheckingProver: each ProofService owns one instance and
 *    shares it across all its requests and hedged attempts.
 *
 * Fault site "service.breaker": an injected launch fault makes
 * allow() spuriously deny a healthy backend (a lying health signal).
 * This only perturbs routing -- the chaos suite asserts the proof
 * invariant survives a malicious breaker.
 */

#ifndef GZKP_SERVICE_BACKEND_HEALTH_HH
#define GZKP_SERVICE_BACKEND_HEALTH_HH

#include <array>
#include <cstdint>
#include <mutex>

#include "faultsim/faultsim.hh"
#include "service/breaker.hh"
#include "status/status.hh"
#include "zkp/prover_pipeline.hh"

namespace gzkp::service {

class BackendHealth final : public zkp::BackendMonitor
{
  public:
    /** One breaker configuration shared by both backends. */
    using Options = BreakerOptions;

    struct BackendSnapshot {
        BreakerState state = BreakerState::Closed;
        std::uint64_t attempts = 0;
        std::uint64_t failures = 0;
        std::uint64_t opens = 0;      //!< times the breaker opened
        std::uint64_t denials = 0;    //!< allow() == false returns
        double windowFailureRate = 0; //!< over the sliding window
        double p50Seconds = 0;        //!< attempt latency, window
        double p99Seconds = 0;
    };

    struct Snapshot {
        std::array<BackendSnapshot, zkp::kProverBackendCount> backend;
        std::uint64_t totalOpens = 0;

        const BackendSnapshot &
        operator[](zkp::ProverBackend b) const
        {
            return backend[std::size_t(b)];
        }
    };

    BackendHealth() : BackendHealth(Options()) {}
    explicit BackendHealth(Options opt)
    {
        for (SlidingBreaker &b : b_)
            b = SlidingBreaker(opt);
    }

    /**
     * zkp::BackendMonitor: gate one prove's use of `backend`.
     * Closed admits; Open denies until the cooldown elapses, then
     * flips to HalfOpen and admits the probe; HalfOpen admits (the
     * probe attempts are the re-admission evidence).
     */
    bool
    allow(zkp::ProverBackend backend) override
    {
        std::lock_guard<std::mutex> lk(mu_);
        SlidingBreaker &b = b_[std::size_t(backend)];
        // Injected lying health signal: spuriously deny a healthy
        // backend. Routing-only; never a correctness hazard.
        if (faultsim::active() &&
            faultsim::shouldFire(faultsim::FaultKind::Launch,
                                 "service.breaker", allowSeq_++)) {
            b.countDenial();
            return false;
        }
        return b.allow();
    }

    /** zkp::BackendMonitor: one attempt's outcome and latency. */
    void
    record(zkp::ProverBackend backend, const Status &status,
           double seconds) override
    {
        std::lock_guard<std::mutex> lk(mu_);
        SlidingBreaker &b = b_[std::size_t(backend)];
        b.countAttempt();
        if (neutralStatus(status.code()))
            return; // don't blame the backend for the caller's stop
        b.record(status.isOk(), seconds);
    }

    BreakerState
    state(zkp::ProverBackend backend) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return b_[std::size_t(backend)].state();
    }

    Snapshot
    snapshot() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        Snapshot s;
        for (std::size_t i = 0; i < zkp::kProverBackendCount; ++i) {
            const SlidingBreaker &b = b_[i];
            BackendSnapshot &o = s.backend[i];
            o.state = b.state();
            o.attempts = b.attempts();
            o.failures = b.failures();
            o.opens = b.opens();
            o.denials = b.denials();
            o.windowFailureRate = b.failureRate();
            o.p50Seconds = b.latencyQuantile(0.5);
            o.p99Seconds = b.latencyQuantile(0.99);
            s.totalOpens += b.opens();
        }
        return s;
    }

  private:
    mutable std::mutex mu_;
    std::array<SlidingBreaker, zkp::kProverBackendCount> b_{};
    std::uint64_t allowSeq_ = 0;
};

} // namespace gzkp::service

#endif // GZKP_SERVICE_BACKEND_HEALTH_HH
