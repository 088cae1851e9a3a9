/**
 * @file
 * End-to-end benchmark: verified Groth16 proofs through ProofService.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *               [--trace-out PATH] [--smoke]
 *
 * --trace 0 (end-to-end run): sets the workload up several times
 * (key generation for every circuit, service construction and
 * registration, one warm-up proof per circuit), half before the
 * window and half after it, and reports the median set-up time. The
 * window drives the service of the last set-up before it for S
 * seconds from closed-loop client threads that each wait for their
 * proof. Every delivered proof is then checked outside the timed
 * window: pairing verification against the circuit's verifying key,
 * and a byte-compare of the first proofs of each circuit against a
 * direct serial-engine prove with the same (witness, seed).
 *
 * --trace 1 (traced run): sets up once, runs a fixed number of
 * requests through the service for the service-layer numbers, then
 * replays the same requests through each layer's public functions
 * under spans (trace.hh) for the per-layer numbers, and writes the
 * spans as Chrome trace-event JSON to --trace-out.
 *
 * Inputs come from --seed only: circuit instances, witness pools,
 * keys and the request sequence. Human-readable lines go first; the
 * last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Exit codes: 0 = ran, every request
 * delivered a proof and every proof checked out, 1 = a request was
 * rejected or failed, a proof failed the benchmark's own check, or no
 * proof was delivered, 2 = refused to run (bad arguments, GZKP_* environment, a build
 * without NDEBUG, an unsatisfied witness).
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "device/cost_model.hh"
#include "device/device.hh"
#include "ec/point.hh"
#include "ff/simd/dispatch.hh"
#include "service/proof_service.hh"
#include "testkit/rng.hh"
#include "workload/workloads.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/prover_pipeline.hh"
#include "zkp/serialize.hh"

#include "trace.hh"

extern char **environ;

namespace {

using namespace gzkp;
using Family = zkp::Bn254Family;
using G16 = zkp::Groth16<Family>;
using Fr = Family::Fr;
using Service = service::ProofService<Family>;
using Builder = workload::Builder<Fr>;
using Clock = std::chrono::steady_clock;
using perfbench::Tracer;

/** Prover threads: the host's four cores, set explicitly. */
constexpr std::size_t kThreads = 4;
constexpr std::uint64_t kMiB = 1ull << 20;

// Seed streams, so each kind of input draws from its own sequence.
constexpr std::uint64_t kStreamCircuit = 1;
constexpr std::uint64_t kStreamKeys = 2;
constexpr std::uint64_t kStreamWitness = 3;
constexpr std::uint64_t kStreamRequest = 4;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Peak resident set of the process so far (ru_maxrss is in KiB). */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/** Nearest-rank quantile of an unsorted sample (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

// ------------------------------------------------------------ workloads

/**
 * One circuit of a workload. `build` draws from its rng. When
 * `valuesOnly` is set the rng picks only the witness values and the
 * constraint system is fixed by the shape (so many witnesses share
 * one registered circuit); otherwise the rng also draws the
 * structure, and the pool holds the instance's own witness.
 */
struct CircuitDef {
    std::string name;
    std::function<Builder(testkit::Rng &)> build;
    bool valuesOnly = true;
};

struct WorkloadDef {
    std::string name;
    std::vector<CircuitDef> circuits;
    std::size_t clients = 1;
    std::size_t tenants = 1;
    std::uint64_t cacheBytes = 0;
    std::size_t poolSize = 1;
    bool zipf = false;         //!< Zipf(s=1) circuit choice, else round robin
    /**
     * Requests per block: clients check the deadline only between
     * blocks, so every run measures whole blocks.
     */
    std::size_t block = 1;
    /**
     * Zipf workloads: each block is redrawn until an LRU cache of
     * `cacheEntries` artifact sets misses exactly `blockMisses` times
     * on it. The miss share is then the same in every run and every
     * seed instead of swinging with a dozen random draws.
     */
    std::size_t blockMisses = 0;
    std::size_t cacheEntries = 0;
    std::size_t setupReps = 1; //!< set-ups per end-to-end run
    /**
     * Percentile reported as latency_tail_s. It is fixed per workload,
     * so every run and both sides of a comparison read the same one.
     */
    double tailQ = 0.5;
    std::size_t traceRequests = 1;
    /** Proofs of each circuit byte-compared to a serial prove. */
    std::size_t byteChecks = 1;
};

CircuitDef
poseidonMerkle(std::size_t depth, std::size_t arity, std::uint64_t leaf)
{
    // The leaf position selects the one-hot slots, which are part of
    // the constraint system: it stays fixed per circuit.
    return {"poseidon-merkle-d" + std::to_string(depth) + "-a" +
                std::to_string(arity),
            [=](testkit::Rng &rng) {
                return workload::makePoseidonMerkleCircuit<Fr>(
                    depth, arity, leaf, rng);
            },
            true};
}

CircuitDef
poseidonChain(std::size_t length)
{
    return {"poseidon-chain-" + std::to_string(length),
            [=](testkit::Rng &rng) {
                return workload::makePoseidonChainCircuit<Fr>(length, rng);
            },
            true};
}

CircuitDef
mimcMerkle(std::size_t depth)
{
    return {"mimc-merkle-d" + std::to_string(depth),
            [=](testkit::Rng &rng) {
                return workload::makeMerkleCircuit<Fr>(depth, rng);
            },
            true};
}

CircuitDef
synthetic(std::size_t constraints)
{
    return {"synthetic-" + std::to_string(constraints),
            [=](testkit::Rng &rng) {
                return workload::makeSyntheticCircuit<Fr>(constraints,
                                                          0.4, rng);
            },
            false};
}

std::vector<WorkloadDef>
workloads()
{
    std::vector<WorkloadDef> w;
    {
        WorkloadDef d;
        d.name = "merkle-small";
        d.circuits = {poseidonMerkle(4, 2, 5)};
        d.clients = 4;
        d.tenants = 2;
        d.cacheBytes = 64 * kMiB;
        d.poolSize = 16;
        d.setupReps = 7;
        // A 20 s window delivers 60 to 100 proofs at 3 to 5 proofs/s,
        // so at least twelve lie beyond p80.
        d.tailQ = 0.8;
        d.traceRequests = 24;
        d.byteChecks = 2;
        w.push_back(d);
    }
    {
        WorkloadDef d;
        d.name = "circuit-churn";
        d.circuits = {poseidonMerkle(16, 2, 21845), poseidonMerkle(5, 4, 9),
                      poseidonChain(16), mimcMerkle(20), synthetic(4095)};
        d.clients = 1;
        d.cacheBytes = 128 * kMiB;
        d.poolSize = 4;
        d.zipf = true;
        d.block = 4;
        d.blockMisses = 1;
        d.cacheEntries = 3;
        d.setupReps = 2;
        // With one miss in every block of four, the misses are the
        // slowest quarter of every window. A 20 s window of four to
        // eight blocks has too few samples for ten beyond any tail cut
        // that lands on a miss; p90 falls in the middle of the misses
        // (the 3rd of 4 to the 5th of 8), steadier than their fastest.
        d.tailQ = 0.9;
        d.traceRequests = 12;
        w.push_back(d);
    }
    return w;
}

// ------------------------------------------------------------- instances

struct Instance {
    std::string name;
    zkp::R1cs<Fr> cs{0};
    std::vector<std::vector<Fr>> pool; //!< full assignments z
    G16::Keys keys;
    Service::CircuitId id = 0;
    std::uint64_t hash = 0;
};

std::vector<Fr>
publicInputs(const Instance &c, const std::vector<Fr> &z)
{
    return zkp::SelfCheckingProver<Family>::publicInputs(c.keys.pk, z);
}

/**
 * Circuit instances and witness pools, from the seed, untimed. Every
 * witness is checked against the constraint system it will be proved
 * under: an unsatisfied one would walk the whole backend ladder and
 * swamp every timing.
 */
bool
makeInstances(const WorkloadDef &w, std::uint64_t seed, bool smoke,
              std::vector<Instance> &out)
{
    std::size_t pool = smoke ? 2 : w.poolSize;
    for (std::size_t ci = 0; ci < w.circuits.size(); ++ci) {
        const CircuitDef &def = w.circuits[ci];
        testkit::Rng r0(testkit::deriveSeed(seed, ci, kStreamCircuit));
        Builder proto = def.build(r0);
        Instance inst;
        inst.name = def.name;
        inst.cs = proto.cs();
        inst.pool.push_back(proto.assignment());
        for (std::size_t k = 1; def.valuesOnly && k < pool; ++k) {
            testkit::Rng rk(
                testkit::deriveSeed(seed, ci * 1000 + k, kStreamWitness));
            inst.pool.push_back(def.build(rk).assignment());
        }
        for (const auto &z : inst.pool) {
            if (z.size() != inst.cs.numVars() || !inst.cs.isSatisfied(z)) {
                std::fprintf(stderr,
                             "perfbench: witness for %s does not satisfy "
                             "the registered circuit\n",
                             def.name.c_str());
                return false;
            }
        }
        out.push_back(std::move(inst));
    }
    return true;
}

// ------------------------------------------------------------- requests

struct RequestSpec {
    std::size_t circuit = 0;
    std::size_t witness = 0;
    std::uint64_t proofSeed = 0;
    std::uint64_t tenant = 0;
};

/** Zipf(s=1) over n ranks by inverse CDF; rank 0 is the most popular. */
std::size_t
zipfRank(std::size_t n, double u)
{
    double h = 0;
    for (std::size_t k = 1; k <= n; ++k)
        h += 1.0 / double(k);
    double acc = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        acc += 1.0 / (double(k) * h);
        if (u < acc)
            return k - 1;
    }
    return n - 1;
}

/**
 * The circuit sequence of a Zipf workload (one client), `blocks`
 * blocks long. The simulated LRU starts where the warm-up leaves the
 * real cache: the last `cacheEntries` circuits, in warm-up order.
 */
std::vector<std::size_t>
zipfSequence(const WorkloadDef &w, std::uint64_t seed, std::size_t blocks)
{
    std::size_t n = w.circuits.size();
    std::vector<std::size_t> lru;
    for (std::size_t c = n - std::min(n, w.cacheEntries); c < n; ++c)
        lru.push_back(c);
    testkit::Rng rng(testkit::deriveSeed(seed, 0, kStreamRequest + 2));
    std::vector<std::size_t> seq;
    while (seq.size() < blocks * w.block) {
        std::vector<std::size_t> blk, sim = lru;
        std::size_t misses = 0;
        for (std::size_t i = 0; i < w.block; ++i) {
            std::size_t c = zipfRank(n, double(rng() >> 11) * 0x1.0p-53);
            auto it = std::find(sim.begin(), sim.end(), c);
            if (it != sim.end()) {
                sim.erase(it);
            } else {
                ++misses;
                if (sim.size() >= w.cacheEntries)
                    sim.erase(sim.begin());
            }
            sim.push_back(c);
            blk.push_back(c);
        }
        if (misses != w.blockMisses)
            continue;
        lru = sim;
        seq.insert(seq.end(), blk.begin(), blk.end());
    }
    return seq;
}

/** Request j of client k: a pure function of (seed, k, j). */
RequestSpec
requestAt(const WorkloadDef &w, const std::vector<Instance> &inst,
          const std::vector<std::size_t> &zipfSeq, std::uint64_t seed,
          std::size_t client, std::size_t j)
{
    testkit::Rng rng(
        testkit::deriveSeed(seed, (std::uint64_t(client) << 32) | j,
                            kStreamRequest));
    RequestSpec r;
    r.circuit = w.zipf ? zipfSeq.at(j) : j % inst.size();
    r.witness = rng() % inst[r.circuit].pool.size();
    r.proofSeed = rng();
    r.tenant = client % w.tenants;
    return r;
}

// --------------------------------------------------------------- set-up

struct Setup {
    std::unique_ptr<Service> svc;
    double seconds = 0;
    double keygenSeconds = 0;
    double constructSeconds = 0;
    double warmupSeconds = 0;
};

Service::Options
serviceOptions(const WorkloadDef &w)
{
    Service::Options opt;
    opt.threads = kThreads;
    opt.cacheBytes = w.cacheBytes;
    for (std::uint64_t t = 0; t < w.tenants; ++t)
        opt.tenantWeights[t] = 1;
    return opt;
}

Service::Request
makeRequest(const std::vector<Instance> &inst, const RequestSpec &r)
{
    Service::Request req;
    req.circuit = inst[r.circuit].id;
    req.witness = inst[r.circuit].pool[r.witness];
    req.seed = r.proofSeed;
    req.tenant = r.tenant;
    return req;
}

/**
 * Key generation for every circuit, service construction and
 * registration, and one warm-up proof per circuit (which builds its
 * artifacts). Returns false when a warm-up proof fails.
 */
bool
setUp(const WorkloadDef &w, std::uint64_t seed, std::vector<Instance> &inst,
      Setup &s, Tracer *tr)
{
    auto t0 = Clock::now();
    std::optional<Tracer::Scope> root;
    if (tr != nullptr) {
        tr->setTraceId(-1);
        root.emplace(*tr, "setup");
    }
    for (std::size_t ci = 0; ci < inst.size(); ++ci) {
        std::optional<Tracer::Scope> span;
        if (tr != nullptr)
            span.emplace(*tr, "setup.keygen");
        testkit::Rng kr(testkit::deriveSeed(seed, ci, kStreamKeys));
        inst[ci].keys = G16::setup(inst[ci].cs, kr);
    }
    s.keygenSeconds = since(t0);

    auto t1 = Clock::now();
    {
        std::optional<Tracer::Scope> span;
        if (tr != nullptr)
            span.emplace(*tr, "service.construct");
        s.svc = service::makeBn254ProofService(serviceOptions(w));
        for (Instance &c : inst) {
            c.hash = service::pkContentHash<Family>(c.keys.pk);
            c.id = s.svc->registerCircuit(c.keys.pk, c.keys.vk, c.cs);
        }
        s.svc->start();
    }
    s.constructSeconds = since(t1);

    auto t2 = Clock::now();
    {
        std::optional<Tracer::Scope> span;
        if (tr != nullptr)
            span.emplace(*tr, "service.warmup");
        for (std::size_t ci = 0; ci < inst.size(); ++ci) {
            RequestSpec r;
            r.circuit = ci;
            r.proofSeed = testkit::deriveSeed(seed, ci, kStreamRequest + 1);
            auto fut = s.svc->submit(makeRequest(inst, r));
            if (!fut.isOk() || !fut->get().status.isOk()) {
                std::fprintf(stderr, "perfbench: warm-up proof for %s "
                                     "failed\n",
                             inst[ci].name.c_str());
                return false;
            }
        }
    }
    s.warmupSeconds = since(t2);
    s.seconds = since(t0);
    return true;
}

// ----------------------------------------------------------- load phase

struct Outcome {
    RequestSpec spec;
    bool admitted = false;
    StatusCode code = StatusCode::kOk;
    zkp::ProverBackend backend = zkp::ProverBackend::Gzkp;
    double latency = 0;
    double queueSeconds = 0;
    double proveSeconds = 0;
    bool cacheHit = false;
    std::optional<G16::Proof> proof;
};

/**
 * Closed loop: each client submits, waits for its result, and only
 * then sends the next request. Clients stop issuing at `deadline`
 * (time-bounded) or after `perClient` requests (count-bounded).
 */
std::vector<Outcome>
runClosedLoop(const WorkloadDef &w, const std::vector<Instance> &inst,
              std::uint64_t seed, Service &svc,
              std::optional<Clock::time_point> deadline,
              std::size_t perClient)
{
    // Enough blocks for any run: a block takes well over 0.1 s.
    std::vector<std::size_t> zipfSeq;
    if (w.zipf)
        zipfSeq = zipfSequence(w, seed, 1024);
    std::vector<std::vector<Outcome>> per(w.clients);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < w.clients; ++k) {
        threads.emplace_back([&, k] {
            for (std::size_t j = 0;; ++j) {
                bool boundary = j % w.block == 0;
                if (deadline ? boundary && Clock::now() >= *deadline
                             : j >= perClient)
                    break;
                Outcome o;
                o.spec = requestAt(w, inst, zipfSeq, seed, k, j);
                auto t0 = Clock::now();
                auto fut = svc.submit(makeRequest(inst, o.spec));
                if (!fut.isOk()) {
                    o.code = fut.status().code();
                    o.latency = since(t0);
                    per[k].push_back(std::move(o));
                    continue;
                }
                o.admitted = true;
                Service::Result res = fut->get();
                o.latency = since(t0);
                o.code = res.status.code();
                o.backend = res.backendUsed;
                o.queueSeconds = res.queueSeconds;
                o.proveSeconds = res.proveSeconds;
                o.cacheHit = res.cacheHit;
                o.proof = std::move(res.proof);
                per[k].push_back(std::move(o));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    // Interleave clients by request index: the same order the traced
    // replay uses.
    std::vector<Outcome> all;
    for (std::size_t j = 0;; ++j) {
        bool any = false;
        for (std::size_t k = 0; k < w.clients; ++k) {
            if (j < per[k].size()) {
                all.push_back(std::move(per[k][j]));
                any = true;
            }
        }
        if (!any)
            break;
    }
    return all;
}

// ------------------------------------------------------ correctness gate

struct GateResult {
    std::size_t verified = 0;
    std::size_t verifyFailures = 0;
    std::size_t byteChecks = 0;
    std::size_t byteMismatches = 0;
};

/**
 * Outside the timed window: every delivered proof is pairing-checked
 * against its circuit's verifying key and public inputs, and the
 * first `byteChecks` delivered proofs of each circuit are
 * byte-compared with a direct serial-engine prove of the same
 * (witness, seed).
 */
GateResult
checkProofs(const std::vector<Instance> &inst,
            const std::vector<Outcome> &outs, std::size_t byteChecks)
{
    GateResult g;
    std::vector<const Outcome *> delivered;
    for (const Outcome &o : outs)
        if (o.proof)
            delivered.push_back(&o);

    std::atomic<std::size_t> next{0}, bad{0};
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kThreads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < delivered.size(); i = next++) {
                const Outcome &o = *delivered[i];
                const Instance &c = inst[o.spec.circuit];
                const auto &z = c.pool[o.spec.witness];
                if (!zkp::verifyBn254(c.keys.vk, *o.proof,
                                      publicInputs(c, z)))
                    ++bad;
            }
        });
    }
    for (auto &t : pool)
        t.join();
    g.verified = delivered.size() - bad;
    g.verifyFailures = bad;

    std::vector<std::size_t> checked(inst.size(), 0);
    for (const Outcome *d : delivered) {
        const Outcome &o = *d;
        if (checked[o.spec.circuit]++ >= byteChecks)
            continue;
        const Instance &c = inst[o.spec.circuit];
        service::ProofRng rng(o.spec.proofSeed);
        auto ref = G16::prove<zkp::SerialMsmPolicy>(
            c.keys.pk, c.cs, c.pool[o.spec.witness], rng, nullptr,
            zkp::CpuNttEngine<Fr>(), kThreads);
        ++g.byteChecks;
        if (zkp::serializeProof<Family>(ref) !=
            zkp::serializeProof<Family>(*o.proof))
            ++g.byteMismatches;
    }
    return g;
}

// --------------------------------------------------------------- output

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::size_t samples = 0;
};

/** A metric without samples is printed as such and left out of the JSON. */
void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        if (m.samples == 0)
            std::printf("  %-28s %14s %-6s n=0\n", m.name.c_str(),
                        "no samples", m.unit.c_str());
        else
            std::printf("  %-28s %14.6g %-6s n=%zu\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.samples);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char *sep = "";
    for (const Metric &m : metrics) {
        if (m.samples == 0)
            continue;
        std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), m.value, m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Outcome accounting by typed status code and by backend, so a
 * nonzero failure share or a demotion is explained. Returns the
 * number of failed requests.
 */
std::size_t
printOutcomes(const std::vector<Outcome> &outs, const GateResult &g)
{
    std::map<std::string, std::size_t> codes, backends;
    std::size_t rejected = 0, notOk = 0;
    for (const Outcome &o : outs) {
        ++codes[statusCodeName(o.code)];
        if (!o.admitted)
            ++rejected;
        else if (o.code != StatusCode::kOk)
            ++notOk;
        else
            ++backends[zkp::name(o.backend)];
    }
    std::printf("outcomes:");
    for (const auto &[k, v] : codes)
        std::printf(" %s=%zu", k.c_str(), v);
    std::printf("\nbackends:");
    for (const auto &[k, v] : backends)
        std::printf(" %s=%zu", k.c_str(), v);
    std::size_t failed = rejected + notOk + g.verifyFailures +
        g.byteMismatches;
    std::printf("\ngate: verified=%zu verify_failures=%zu byte_checks=%zu "
                "byte_mismatches=%zu\n",
                g.verified, g.verifyFailures, g.byteChecks,
                g.byteMismatches);
    std::printf("failed_frac: %.6f (rejected=%zu not_ok=%zu unverified=%zu "
                "mismatched=%zu of %zu attempted)\n",
                outs.empty() ? 0.0 : double(failed) / double(outs.size()),
                rejected, notOk, g.verifyFailures, g.byteMismatches,
                outs.size());
    return failed;
}

// ------------------------------------------------------ end-to-end mode

int
runEndToEnd(const WorkloadDef &w, std::uint64_t seed, double seconds,
            bool smoke)
{
    std::vector<Instance> inst;
    if (!makeInstances(w, seed, smoke, inst))
        return 2;

    // Half the set-ups (rounded up) run before the window and the rest
    // after the correctness gate, so a slow spell of the host that
    // covers one phase of the run cannot cover every sample. The
    // window uses the service of the last set-up before it.
    std::size_t reps = smoke ? 1 : w.setupReps;
    std::vector<double> setupSamples;
    Setup s;
    auto setUpRep = [&]() {
        // Tear the previous service and keys down, untimed, so the
        // peak RSS covers one set-up at a time.
        s = Setup();
        for (Instance &c : inst)
            c.keys = G16::Keys();
        if (!setUp(w, seed, inst, s, nullptr))
            return false;
        setupSamples.push_back(s.seconds);
        std::printf("setup rep %zu: %.3f s (keygen %.3f, construct %.4f, "
                    "warm-up %.3f)\n",
                    setupSamples.size() - 1, s.seconds, s.keygenSeconds,
                    s.constructSeconds, s.warmupSeconds);
        return true;
    };
    for (std::size_t rep = 0; rep < (reps + 1) / 2; ++rep)
        if (!setUpRep())
            return 1;

    Service::Stats before = s.svc->stats();
    std::printf("cache after set-up: %zu entries, %.1f MiB of %llu MiB\n",
                before.cache.entries,
                double(before.cache.bytesInUse) / double(kMiB),
                (unsigned long long)(w.cacheBytes / kMiB));
    double cpu0 = cpuSeconds();
    auto t0 = Clock::now();
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    std::vector<Outcome> outs =
        runClosedLoop(w, inst, seed, *s.svc, deadline, 0);
    double elapsed = since(t0);
    double cpu = cpuSeconds() - cpu0;
    Service::Stats after = s.svc->stats();
    s.svc->stop();

    auto tg = Clock::now();
    GateResult g = checkProofs(inst, outs, smoke ? 1 : w.byteChecks);
    std::printf("correctness gate: %.3f s (outside the window)\n", since(tg));
    std::size_t failed = printOutcomes(outs, g);

    std::vector<double> lat;
    std::size_t misses = 0;
    for (const Outcome &o : outs) {
        if (o.proof) {
            lat.push_back(o.latency);
            misses += o.cacheHit ? 0 : 1;
        }
    }
    std::size_t delivered = g.verified;
    std::uint64_t batches = after.batches - before.batches;
    std::printf("window: %.3f s, %zu delivered, cache misses %zu (%.1f%%), "
                "batches %llu (mean size %.2f)\n",
                elapsed, lat.size(), misses,
                lat.empty() ? 0.0 : 100.0 * double(misses) / lat.size(),
                (unsigned long long)batches,
                batches == 0 ? 0.0
                             : double(after.batchedRequests -
                                      before.batchedRequests) /
                        double(batches));

    std::printf("latency tail percentile: p%.0f of %zu samples\n",
                w.tailQ * 100.0, lat.size());

    double peakRss = peakRssMb();
    while (setupSamples.size() < reps)
        if (!setUpRep())
            return 1;

    std::vector<Metric> m = {
        {"throughput_pps", double(delivered) / elapsed, "1/s", delivered},
        {"latency_p50_s", median(lat), "s", lat.size()},
        {"latency_tail_s", quantile(lat, w.tailQ), "s", lat.size()},
        {"setup_s", median(setupSamples), "s", setupSamples.size()},
        {"cpu_s_per_proof", delivered == 0 ? 0.0 : cpu / double(delivered),
         "s", delivered},
        {"peak_rss_mb", peakRss, "MB", 1},
    };
    bool correct = failed == 0 && delivered > 0;
    printResult(correct, outs.size(), failed, m);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------- traced mode

struct DrainTotals {
    std::uint64_t affineAdds = 0, inversions = 0, sideRouted = 0;
};

template <typename Cfg, typename Pre>
ec::ECPoint<Cfg>
soloMsm(Tracer &tr, const char *name, const Pre &pre,
        const std::vector<Fr> &scalars, DrainTotals &d)
{
    typename msm::GzkpMsm<Cfg>::Options o;
    o.threads = kThreads;
    msm::GzkpMsm<Cfg> eng(o);
    ec::ECPoint<Cfg> r;
    {
        Tracer::Scope span(tr, name);
        r = eng.run(pre, scalars);
    }
    auto s = eng.lastDrainStats();
    d.affineAdds += s.affineAdds;
    d.inversions += s.inversions;
    d.sideRouted += s.sideRouted;
    return r;
}

std::size_t
nonzero(const std::vector<Fr> &v)
{
    std::size_t n = 0;
    for (const Fr &x : v)
        n += x.isZero() ? 0 : 1;
    return n;
}

int
runTraced(const WorkloadDef &w, std::uint64_t seed, bool smoke,
          const std::string &tracePath)
{
    std::vector<Instance> inst;
    if (!makeInstances(w, seed, smoke, inst))
        return 2;
    Tracer tr;
    Setup s;
    if (!setUp(w, seed, inst, s, &tr))
        return 1;

    // Service phase: the fixed request list, untraced, through the
    // service exactly as in the end-to-end run.
    std::size_t perClient =
        std::max<std::size_t>(1, (smoke ? w.clients : w.traceRequests) /
                                     w.clients);
    Service::Stats before = s.svc->stats();
    std::vector<Outcome> outs =
        runClosedLoop(w, inst, seed, *s.svc, std::nullopt, perClient);
    Service::Stats after = s.svc->stats();
    s.svc->stop();
    s.svc.reset();

    std::vector<double> queueWait, prove;
    std::map<std::string, double> backendCount = {
        {"gzkp", 0}, {"bellperson", 0}, {"serial", 0}};
    for (const Outcome &o : outs) {
        if (!o.proof)
            continue;
        queueWait.push_back(o.queueSeconds);
        prove.push_back(o.proveSeconds);
        backendCount[zkp::name(o.backend)] += 1;
    }

    // Replay: warm-up builds, then the same requests, through each
    // layer's public functions under spans.
    service::ArtifactCache<Family> cache(w.cacheBytes);
    std::size_t verifyFailures = 0, byteMismatches = 0;
    std::vector<double> stageSums, points, nonzeros, butterflies;
    std::vector<double> drainAdds, drainInv, drainSide, msmModel, polyModel;
    service::ArtifactCache<Family>::Stats warm;
    auto resolve = [&](const Instance &c) {
        bool hit = false;
        Tracer::Scope span(tr, "cache.resolve");
        auto got = cache.getOrBuild(
            c.hash,
            [&]() -> StatusOr<service::ArtifactCache<Family>::ArtifactPtr> {
                std::shared_ptr<service::CircuitArtifacts<Family>> art;
                {
                    Tracer::Scope d(tr, "ntt.domain");
                    art = std::make_shared<service::CircuitArtifacts<Family>>(
                        c.keys.pk.domainLog);
                }
                art->numVars = c.keys.pk.numVars;
                art->numPublic = c.keys.pk.numPublic;
                Tracer::Scope b(tr, "cache.build");
                GZKP_ASSIGN_OR_RETURN(
                    art->msm, zkp::buildMsmArtifacts<Family>(c.keys.pk,
                                                             kThreads));
                return service::ArtifactCache<Family>::ArtifactPtr(
                    std::move(art));
            },
            &hit);
        return got;
    };
    for (std::size_t ci = 0; ci < inst.size(); ++ci) {
        tr.setTraceId(-2 - std::int64_t(ci));
        Tracer::Scope root(tr, "warmup");
        if (!resolve(inst[ci]).isOk())
            return 1;
    }
    warm = cache.stats();

    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Outcome &o = outs[i];
        const Instance &c = inst[o.spec.circuit];
        const auto &pk = c.keys.pk;
        const auto &z = c.pool[o.spec.witness];
        tr.setTraceId(std::int64_t(i));
        G16::Proof proof;
        G16::MsmOutputs m;
        std::vector<Fr> h;
        service::ArtifactCache<Family>::ArtifactPtr art;
        {
            Tracer::Scope root(tr, "request");
            auto got = resolve(c);
            if (!got.isOk())
                return 1;
            art = *got;
            {
                Tracer::Scope span(tr, "zkp.poly");
                h = G16::polyStage(pk, c.cs, z, art->domain);
            }
            service::ProofRng rng(o.spec.proofSeed);
            Fr r = Fr::random(rng);
            Fr sv = Fr::random(rng);
            {
                Tracer::Scope span(tr, "msm.stage");
                m = G16::msmStageWithArtifacts(pk, art->msm, z, h, kThreads);
            }
            {
                Tracer::Scope span(tr, "zkp.assemble");
                proof = G16::assembleProof(pk, m, r, sv);
            }
            bool ok;
            {
                Tracer::Scope span(tr, "selfcheck.subgroup");
                ok = ec::inPrimeSubgroup(proof.a) &&
                    ec::inPrimeSubgroup(proof.b) &&
                    ec::inPrimeSubgroup(proof.c);
            }
            {
                Tracer::Scope span(tr, "pairing.verify");
                ok = zkp::verifyBn254(c.keys.vk, proof, publicInputs(c, z)) &&
                    ok;
            }
            verifyFailures += ok ? 0 : 1;
        }
        // The replayed proof must match the service's bytes. A request
        // the service did not deliver is already counted as failed.
        if (o.proof && zkp::serializeProof<Family>(*o.proof) !=
                           zkp::serializeProof<Family>(proof))
            ++byteMismatches;

        // Labelled second pass: each MSM alone at full width.
        std::vector<Fr> aux(z.begin() + pk.numPublic + 1, z.end());
        DrainTotals d;
        {
            Tracer::Scope root(tr, "msm.solo");
            using C1 = Family::G1Cfg;
            using C2 = Family::G2Cfg;
            bool same = soloMsm<C1>(tr, "msm.a", art->msm.a, z, d) == m.a;
            same = soloMsm<C2>(tr, "msm.b2", art->msm.b2, z, d) == m.b2 &&
                same;
            same = soloMsm<C1>(tr, "msm.b1", art->msm.b1, z, d) == m.b1 &&
                same;
            same = soloMsm<C1>(tr, "msm.l", art->msm.l, aux, d) == m.l &&
                same;
            same = soloMsm<C1>(tr, "msm.h", art->msm.h, h, d) == m.h && same;
            byteMismatches += same ? 0 : 1;
        }
        drainAdds.push_back(double(d.affineAdds));
        drainInv.push_back(double(d.inversions));
        drainSide.push_back(double(d.sideRouted));
        points.push_back(double(pk.aQuery.size() + pk.b1Query.size() +
                                pk.b2Query.size() + pk.lQuery.size() +
                                pk.hQuery.size()));
        nonzeros.push_back(double(3 * nonzero(z) + nonzero(aux) +
                                  nonzero(h)));
        double n = double(std::size_t(1) << pk.domainLog);
        butterflies.push_back(7.0 * (n / 2.0) * double(pk.domainLog));
        auto shape = device::CostModel<Family>::shapeOf(pk);
        auto v100 = device::DeviceSpec::v100(0);
        msmModel.push_back(device::CostModel<Family>::seedSeconds(
            device::StageKind::Msm, shape, v100));
        polyModel.push_back(device::CostModel<Family>::seedSeconds(
            device::StageKind::Poly, shape, v100));
    }
    auto cs = cache.stats();

    // Per-request sums of the traced stages (children of "request"
    // other than the cache resolution, which the service times
    // outside Result::proveSeconds).
    std::map<std::int64_t, double> stageSum;
    std::map<std::int64_t, double> requestTotal;
    std::map<std::string, double> requestSelf;
    {
        const auto &sp = tr.spans();
        std::vector<double> self = tr.selfSeconds();
        for (std::size_t i = 0; i < sp.size(); ++i) {
            const perfbench::Span &x = sp[i];
            if (tr.rootName(i) != "request")
                continue;
            requestSelf[x.name] += self[i];
            if (x.parent == 0)
                requestTotal[x.traceId] += x.seconds();
            else if (sp[x.parent - 1].parent == 0 &&
                     x.name != "cache.resolve")
                stageSum[x.traceId] += x.seconds();
        }
    }
    for (const auto &[id, v] : stageSum)
        stageSums.push_back(v);
    double total = 0;
    for (const auto &[id, v] : requestTotal)
        total += v;
    std::vector<std::pair<double, std::string>> shares;
    for (const auto &[name, v] : requestSelf)
        shares.push_back({v, name});
    std::sort(shares.rbegin(), shares.rend());
    std::printf("self-time shares over %zu replayed requests:\n",
                requestTotal.size());
    for (const auto &[v, name] : shares)
        std::printf("  %-20s %7.3f s  %5.1f%%\n", name.c_str(), v,
                    total > 0 ? 100.0 * v / total : 0.0);
    std::printf("largest self-time layer: %s\n",
                shares.empty() ? "-" : shares.front().second.c_str());

    std::uint64_t hits = cs.hits - warm.hits, misses = cs.misses - warm.misses;
    std::uint64_t batches = after.batches - before.batches;
    auto med = [&](const std::string &name) {
        return median(tr.durations(name));
    };
    auto cnt = [&](const std::string &name) {
        return tr.durations(name).size();
    };
    std::size_t n = outs.size();
    std::vector<Metric> m = {
        {"service.queue_wait_p50_s", median(queueWait), "s", queueWait.size()},
        {"service.prove_p50_s", median(prove), "s", prove.size()},
        {"service.batch_size_mean",
         batches == 0 ? 0.0
                      : double(after.batchedRequests -
                               before.batchedRequests) /
                 double(batches),
         "count", std::size_t(batches)},
        {"service.backend.gzkp", backendCount["gzkp"], "count", n},
        {"service.backend.bellperson", backendCount["bellperson"], "count", n},
        {"service.backend.serial", backendCount["serial"], "count", n},
        {"cache.hit_ratio",
         hits + misses == 0 ? 0.0 : double(hits) / double(hits + misses),
         "ratio", std::size_t(hits + misses)},
        {"cache.evictions", double(cs.evictions - warm.evictions), "count",
         n},
        {"cache.build_s", med("cache.build"), "s", cnt("cache.build")},
        {"cache.resident_mb", double(cs.bytesInUse) / double(kMiB), "MB", 1},
        {"setup.keygen_s", s.keygenSeconds, "s", inst.size()},
        {"zkp.poly_s", med("zkp.poly"), "s", cnt("zkp.poly")},
        {"zkp.assemble_s", med("zkp.assemble"), "s", cnt("zkp.assemble")},
        {"ntt.domain_s", med("ntt.domain"), "s", cnt("ntt.domain")},
        {"ntt.butterflies", median(butterflies), "count", butterflies.size()},
        {"msm.stage_s", med("msm.stage"), "s", cnt("msm.stage")},
        {"msm.a_s", med("msm.a"), "s", cnt("msm.a")},
        {"msm.b1_s", med("msm.b1"), "s", cnt("msm.b1")},
        {"msm.b2_s", med("msm.b2"), "s", cnt("msm.b2")},
        {"msm.l_s", med("msm.l"), "s", cnt("msm.l")},
        {"msm.h_s", med("msm.h"), "s", cnt("msm.h")},
        {"msm.points", median(points), "count", points.size()},
        {"msm.nonzero_scalars", median(nonzeros), "count", nonzeros.size()},
        {"msm.drain.affine_adds", median(drainAdds), "count",
         drainAdds.size()},
        {"msm.drain.inversions", median(drainInv), "count", drainInv.size()},
        {"msm.drain.side_routed", median(drainSide), "count",
         drainSide.size()},
        {"msm.modeled_v100_s", median(msmModel), "modeled_s",
         msmModel.size()},
        {"poly.modeled_v100_s", median(polyModel), "modeled_s",
         polyModel.size()},
        {"selfcheck.subgroup_s", med("selfcheck.subgroup"), "s",
         cnt("selfcheck.subgroup")},
        {"pairing.verify_s", med("pairing.verify"), "s",
         cnt("pairing.verify")},
        {"trace.unattributed_s", mean(prove) - mean(stageSums), "s",
         prove.size()},
    };

    if (!tracePath.empty()) {
        if (!tr.writeChromeTrace(tracePath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         tracePath.c_str());
            return 2;
        }
        std::printf("trace: %zu spans written to %s\n", tr.spans().size(),
                    tracePath.c_str());
    }
    GateResult g;
    g.verified = outs.size() - verifyFailures;
    g.verifyFailures = verifyFailures;
    g.byteChecks = outs.size();
    g.byteMismatches = byteMismatches;
    std::size_t failed = printOutcomes(outs, g);
    bool correct = failed == 0 && !prove.empty();
    printResult(correct, outs.size(), failed, m);
    return correct ? 0 : 1;
}

// ----------------------------------------------------------------- main

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--smoke]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to run a build without "
                         "NDEBUG (debug builds are not measured)\n");
    return 2;
#endif
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "GZKP_", 5) == 0) {
            std::fprintf(stderr,
                         "perfbench: refusing to run with %s set; the "
                         "benchmark measures the program's defaults\n",
                         *e);
            return 2;
        }
    }

    std::string name, tracePath;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            smoke = true;
        } else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
                    a == "--trace" || a == "--trace-out") &&
                   (v = value()) != nullptr) {
            if (a == "--workload")
                name = v;
            else if (a == "--seed")
                seed = std::strtoull(v, nullptr, 10);
            else if (a == "--seconds")
                seconds = std::strtod(v, nullptr);
            else if (a == "--trace")
                trace = std::atoi(v);
            else
                tracePath = v;
        } else {
            return usage();
        }
    }
    const WorkloadDef *w = nullptr;
    std::vector<WorkloadDef> all = workloads();
    for (const WorkloadDef &d : all)
        if (d.name == name)
            w = &d;
    if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1))
        return usage();

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                w->name.c_str(), (unsigned long long)seed, seconds, trace,
                smoke ? " smoke" : "");
    std::printf("env: nproc=%u threads=%zu isa=%s compiler=%s build=%s "
                "cache_budget_mib=%llu clients=%zu\n",
                std::thread::hardware_concurrency(), kThreads,
                ff::simd::describeActiveIsa(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE,
                (unsigned long long)(w->cacheBytes / kMiB), w->clients);
    std::fflush(stdout);
    return trace == 0 ? runEndToEnd(*w, seed, seconds, smoke)
                      : runTraced(*w, seed, smoke, tracePath);
}
