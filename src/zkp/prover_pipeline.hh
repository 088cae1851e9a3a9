/**
 * @file
 * The self-checking prover pipeline: Groth16 proving with fault
 * detection, bounded retry, and graceful backend degradation.
 *
 * The pipeline wraps Groth16::proveChecked() with the recovery policy
 * described in DESIGN.md ("Fault model & recovery"):
 *
 *  1. every attempt runs under the caller's CancelToken (cooperative
 *     cancellation + deadline, polled between parallel chunks);
 *  2. the returned proof is *self-checked* (selfCheckProof(), shared
 *     with the multi-device scheduler) before it is released --
 *     first structurally (all three points on curve and in the
 *     prime-order subgroup: a bit-flip in a Jacobian coordinate
 *     almost never lands back on the curve), then cryptographically
 *     (the family's pairing verifier, when one is configured). A
 *     proof that fails either check becomes a kDataLoss status and is
 *     never returned to the caller;
 *  3. retryable failures (kResourceExhausted, kUnavailable,
 *     kDataLoss, kInternal) are retried up to kAttemptsPerBackend
 *     times; faultsim::advanceEpoch() runs between attempts so
 *     *transient* injected faults (limited arms, or arms whose hash
 *     misses in the next epoch) clear while *persistent* ones keep
 *     firing;
 *  4. when the GZKP backend exhausts its attempts the pipeline
 *     demotes to serial Pippenger and starts over. (The
 *     bellperson-like engine is the paper's GPU baseline, kept for
 *     benches and differential tests; it is slower than serial end
 *     to end, so it is not a fallback tier.) Caller bugs
 *     (kInvalidArgument, kFailedPrecondition) and cooperative stops
 *     (kCancelled, kDeadlineExceeded) are never retried and never
 *     demoted: they return immediately.
 *
 * The terminal contract -- asserted by the chaos suite over hundreds
 * of seeded fault plans -- is that prove() always ends in exactly one
 * of two states: a proof that verifies, or a typed non-OK Status.
 * Never a bad proof, never a crash, never a hang.
 *
 * preprocessWithResume() applies the same retry policy to the MSM
 * engine's Algorithm-1 weighted-point preprocessing, resuming from
 * the last committed checkpoint block instead of recomputing the
 * whole table after a fault.
 */

#ifndef GZKP_ZKP_PROVER_PIPELINE_HH
#define GZKP_ZKP_PROVER_PIPELINE_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/faultsim.hh"
#include "runtime/runtime.hh"
#include "status/status.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"

namespace gzkp::zkp {

/** The graceful-degradation chain, fastest tier first. */
enum class ProverBackend { Gzkp = 0, Serial = 1 };

inline constexpr std::size_t kProverBackendCount = 2;

/** Attempts per backend before the ladder demotes to the next one. */
inline constexpr std::size_t kAttemptsPerBackend = 2;

inline const char *
name(ProverBackend b)
{
    switch (b) {
    case ProverBackend::Gzkp: return "gzkp";
    case ProverBackend::Serial: return "serial";
    }
    return "?";
}

/**
 * True when a status is worth retrying (a transient fault, a failed
 * self-check, an allocation failure). Caller bugs and cooperative
 * stops are final.
 */
inline bool
retryableStatus(StatusCode code)
{
    switch (code) {
    case StatusCode::kResourceExhausted: // alloc failure
    case StatusCode::kUnavailable:       // kernel-launch failure
    case StatusCode::kDataLoss:          // self-check caught corruption
    case StatusCode::kInternal:          // unclassified; retry is safe
        return true;
    default:
        return false;
    }
}

/**
 * Cross-request backend health feedback. A pipeline that demotes
 * per request climbs the full GZKP -> serial ladder from the top on
 * every prove, re-paying the failed attempts on a backend that has
 * been brown for the last hundred requests. A monitor lifts that
 * decision to service scope: before trying a backend the pipeline
 * asks allow(), and after every attempt it reports the outcome and
 * latency through record(). The serving
 * layer's BackendHealth registry (src/service/backend_health.hh)
 * implements this with sliding-window stats and a circuit breaker.
 *
 * Contract: allow()/record() may be called concurrently from many
 * in-flight proofs (implementations synchronize internally), and a
 * monitor must never be able to strand a request -- when it denies
 * every backend, the pipeline falls back to the full unmonitored
 * ladder (the breaker saves latency; correctness never depends on
 * it).
 */
class BackendMonitor
{
  public:
    virtual ~BackendMonitor() = default;

    /** May this prove attempt the backend right now? */
    virtual bool allow(ProverBackend backend) = 0;

    /** One attempt finished with `status` after `seconds`. */
    virtual void
    record(ProverBackend backend, const Status &status,
           double seconds) = 0;
};

/**
 * A cryptographic proof check: (vk, proof, public inputs x without
 * the leading 1) -> accept. For BN254 that is verifyBn254().
 */
template <typename Family>
using Verifier = std::function<bool(
    const typename Groth16<Family>::VerifyingKey &,
    const typename Groth16<Family>::Proof &,
    const std::vector<typename Family::Fr> &)>;

/** The public inputs x (without the leading 1) sliced from z. */
template <typename Family>
std::vector<typename Family::Fr>
publicInputs(const typename Groth16<Family>::ProvingKey &pk,
             const std::vector<typename Family::Fr> &z)
{
    if (z.size() < pk.numPublic + 1)
        return {};
    return std::vector<typename Family::Fr>(z.begin() + 1,
                                            z.begin() + 1 + pk.numPublic);
}

/**
 * The proof self-check every proving path runs before it releases a
 * proof. Structural first: it is cheap next to a pairing and catches
 * coordinate-level corruption (a flipped bit in a Jacobian coordinate
 * maps to an affine point off the curve). Then `verify` on
 * publicInputs(pk, z), when both `verify` and `vk` are given: POLY-
 * and NTT-stage corruption yields valid group elements encoding a
 * wrong proof, which only the verifier catches. Either failure is
 * kDataLoss.
 */
template <typename Family>
Status
selfCheckProof(const typename Groth16<Family>::ProvingKey &pk,
               const typename Groth16<Family>::VerifyingKey *vk,
               const std::vector<typename Family::Fr> &z,
               const typename Groth16<Family>::Proof &p,
               const Verifier<Family> &verify)
{
    if (!Groth16<Family>::inSubgroup(p))
        return dataLossError(
            "groth16.selfcheck: proof point off curve or outside "
            "prime-order subgroup");
    if (verify && vk != nullptr &&
        !verify(*vk, p, publicInputs<Family>(pk, z)))
        return dataLossError(
            "groth16.selfcheck: proof failed verification");
    return Status::ok();
}

/**
 * Self-checking Groth16 prover with backend fallback.
 *
 * The verifier callback is the cryptographic half of
 * selfCheckProof(): for BN254 use makeBn254SelfCheckingProver()
 * (pairing verification); for other families leave it empty and the
 * self-check is structural only (on-curve + prime-subgroup), which
 * already catches every coordinate-level corruption.
 */
template <typename Family>
class SelfCheckingProver
{
  public:
    using G = Groth16<Family>;
    using Fr = typename Family::Fr;
    using Proof = typename G::Proof;
    using ProvingKey = typename G::ProvingKey;
    using VerifyingKey = typename G::VerifyingKey;

    struct Options {
        ProverBackend start = ProverBackend::Gzkp;
        std::size_t threads = 0; //!< 0 = GZKP_THREADS default
        runtime::CancelToken *cancel = nullptr;
        /**
         * Cached per-circuit artifacts (serving layer). When both are
         * set, the GZKP backend proves over the cached tables/domain
         * instead of re-preprocessing -- byte-identical proofs, see
         * Groth16::proveCheckedWithArtifacts(). The serial tier
         * ignores them, so demotion still works when the cached
         * tables are themselves corrupted (they are then effectively
         * a persistent GZKP-tier fault). Both must outlive prove().
         */
        const typename G::MsmArtifacts *artifacts = nullptr;
        const ntt::Domain<Fr> *domain = nullptr;
        /**
         * Optional cross-request health feedback (serving layer):
         * backends the monitor disallows are skipped, every attempt
         * outcome is reported back. Must outlive prove().
         */
        BackendMonitor *monitor = nullptr;
    };

    struct Attempt {
        ProverBackend backend = ProverBackend::Gzkp;
        Status status;
    };

    /** What happened, for logging and for the chaos assertions. */
    struct Report {
        std::vector<Attempt> attempts;
        ProverBackend backendUsed = ProverBackend::Gzkp;
        bool succeeded = false;
        std::size_t epochsAdvanced = 0;
        /** Backends the monitor's breaker skipped entirely. */
        std::size_t backendsSkipped = 0;
    };

    explicit SelfCheckingProver(Options opt = Options(),
                                Verifier<Family> verifier = {})
        : opt_(opt), verifier_(std::move(verifier))
    {}

    /**
     * Prove with retry and fallback. Returns a proof that passed the
     * self-check, or the last typed error once every backend is
     * exhausted (non-retryable statuses return immediately).
     */
    template <typename Rng>
    StatusOr<Proof>
    prove(const ProvingKey &pk, const VerifyingKey &vk,
          const R1cs<Fr> &cs, const std::vector<Fr> &z, Rng &rng,
          Report *report = nullptr) const
    {
        Report local;
        Report &rep = report ? *report : local;
        rep = Report();

        // Install the token only when the caller supplied one, so an
        // ambient scope (e.g. a test harness deadline) is preserved.
        std::optional<runtime::CancelScope> scope;
        if (opt_.cancel)
            scope.emplace(opt_.cancel);

        // The demotion ladder, gated by the health monitor: a backend
        // whose breaker is open is skipped outright -- the service has
        // already watched it fail across requests, so this prove does
        // not pay the attempts again. A monitor that denies *every*
        // backend is overridden with the full ladder: breakers shape
        // latency, they must never strand a request.
        std::vector<ProverBackend> ladder;
        for (std::size_t b = std::size_t(opt_.start);
             b < kProverBackendCount; ++b) {
            ProverBackend backend = ProverBackend(b);
            if (opt_.monitor && !opt_.monitor->allow(backend)) {
                ++rep.backendsSkipped;
                continue;
            }
            ladder.push_back(backend);
        }
        if (ladder.empty()) {
            for (std::size_t b = std::size_t(opt_.start);
                 b < kProverBackendCount; ++b)
                ladder.push_back(ProverBackend(b));
        }

        using AttemptClock = std::chrono::steady_clock;
        Status last =
            internalError("prover.pipeline: no attempt executed");
        for (ProverBackend backend : ladder) {
            for (std::size_t attempt = 0; attempt < kAttemptsPerBackend;
                 ++attempt) {
                if (opt_.cancel) {
                    Status s = opt_.cancel->check();
                    if (!s.isOk()) {
                        rep.attempts.push_back({backend, s});
                        return s.withContext("prover.pipeline");
                    }
                }
                auto t0 = AttemptClock::now();
                StatusOr<Proof> r = proveWith(backend, pk, cs, z, rng);
                Status s = r.status();
                if (s.isOk())
                    s = selfCheckProof<Family>(pk, &vk, z, *r, verifier_);
                double attempt_s =
                    std::chrono::duration<double>(AttemptClock::now() -
                                                  t0)
                        .count();
                if (opt_.monitor)
                    opt_.monitor->record(backend, s, attempt_s);
                rep.attempts.push_back({backend, s});
                if (s.isOk()) {
                    rep.backendUsed = backend;
                    rep.succeeded = true;
                    return std::move(*r);
                }
                last = s;
                if (!retryableStatus(s.code()))
                    return last.withContext("prover.pipeline");
                // A new fault epoch: transient injected faults clear,
                // persistent ones keep firing and force demotion.
                faultsim::advanceEpoch();
                ++rep.epochsAdvanced;
            }
        }
        return last.withContext(
            "prover.pipeline: all backends exhausted");
    }

    /** The public inputs x (without the leading 1) sliced from z. */
    static std::vector<Fr>
    publicInputs(const ProvingKey &pk, const std::vector<Fr> &z)
    {
        return zkp::publicInputs<Family>(pk, z);
    }

  private:
    template <typename Rng>
    StatusOr<Proof>
    proveWith(ProverBackend backend, const ProvingKey &pk,
              const R1cs<Fr> &cs, const std::vector<Fr> &z,
              Rng &rng) const
    {
        switch (backend) {
        case ProverBackend::Gzkp:
            if (opt_.artifacts && opt_.domain)
                return G::proveCheckedWithArtifacts(
                    pk, cs, z, rng, *opt_.artifacts, *opt_.domain,
                    nullptr, CpuNttEngine<Fr>(), opt_.threads);
            return G::template proveChecked<GzkpMsmPolicy>(
                pk, cs, z, rng, nullptr, CpuNttEngine<Fr>(),
                opt_.threads);
        case ProverBackend::Serial:
            return G::template proveChecked<SerialMsmPolicy>(
                pk, cs, z, rng, nullptr, CpuNttEngine<Fr>(),
                opt_.threads);
        }
        return internalError("prover.pipeline: unknown backend");
    }

    Options opt_;
    Verifier<Family> verifier_;
};

/**
 * The BN254 pipeline with the real pairing verifier as the
 * cryptographic self-check.
 */
inline SelfCheckingProver<Bn254Family>
makeBn254SelfCheckingProver(
    typename SelfCheckingProver<Bn254Family>::Options opt = {})
{
    return SelfCheckingProver<Bn254Family>(opt, verifyBn254);
}

/**
 * Retry Algorithm-1 weighted-point preprocessing with checkpoint
 * resume: completed blocks survive a fault, so attempt k+1 restarts
 * from the block the fault interrupted instead of from scratch. Same
 * retry classification as the prover pipeline.
 */
template <typename Cfg>
StatusOr<typename msm::GzkpMsm<Cfg>::Preprocessed>
preprocessWithResume(const msm::GzkpMsm<Cfg> &engine,
                     const std::vector<ec::AffinePoint<Cfg>> &points,
                     std::size_t max_attempts = 3,
                     std::size_t *attempts_used = nullptr)
{
    typename msm::GzkpMsm<Cfg>::PreprocessProgress progress;
    Status last = internalError("msm.preprocess: no attempt executed");
    for (std::size_t a = 0; a < max_attempts; ++a) {
        if (attempts_used)
            *attempts_used = a + 1;
        auto r = statusGuard("msm.preprocess", [&] {
            return engine.preprocessResumable(points, progress);
        });
        if (r.isOk())
            return std::move(*r);
        last = r.status();
        if (!retryableStatus(last.code()))
            return last;
        faultsim::advanceEpoch();
    }
    return last.withContext("msm.preprocess: attempts exhausted");
}

/**
 * Build the full per-circuit artifact set (all five Algorithm-1
 * tables) with checkpoint/resume on every query. This is the builder
 * the serving layer's ArtifactCache runs under single-flight: one
 * faulted query block costs a resumed retry, not the whole set.
 */
template <typename Family>
StatusOr<typename Groth16<Family>::MsmArtifacts>
buildMsmArtifacts(const typename Groth16<Family>::ProvingKey &pk,
                  std::size_t threads = 0)
{
    using G1Cfg = typename Family::G1Cfg;
    using G2Cfg = typename Family::G2Cfg;
    typename msm::GzkpMsm<G1Cfg>::Options o1;
    o1.threads = threads;
    typename msm::GzkpMsm<G2Cfg>::Options o2;
    o2.threads = threads;
    msm::GzkpMsm<G1Cfg> e1(o1);
    msm::GzkpMsm<G2Cfg> e2(o2);
    typename Groth16<Family>::MsmArtifacts art;
    GZKP_ASSIGN_OR_RETURN(
        art.a, preprocessWithResume(e1, pk.aQuery));
    GZKP_ASSIGN_OR_RETURN(
        art.b2, preprocessWithResume(e2, pk.b2Query));
    GZKP_ASSIGN_OR_RETURN(
        art.b1, preprocessWithResume(e1, pk.b1Query));
    GZKP_ASSIGN_OR_RETURN(
        art.l, preprocessWithResume(e1, pk.lQuery));
    GZKP_ASSIGN_OR_RETURN(
        art.h, preprocessWithResume(e1, pk.hQuery));
    return art;
}

} // namespace gzkp::zkp

#endif // GZKP_ZKP_PROVER_PIPELINE_HH
