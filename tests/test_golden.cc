/**
 * @file
 * Golden proof corpus: Groth16 proof bytes pinned across changes.
 *
 * Every other byte-identity test compares engines, arms or thread
 * counts against each other inside one build, so a change that moves
 * every arm the same way passes them all. This suite compares against
 * bytes committed in tests/golden/. Each entry maps
 *
 *     (circuit, circuit_seed, witness_seed, prover_seed)
 *         -> (vk hash, proof points)
 *
 * where
 *
 *  - `circuit` names a workload generator and its size parameters;
 *  - `circuit_seed` seeds Groth16::setup for that circuit, so it fixes
 *    the keys and therefore the vk;
 *  - `witness_seed` seeds the workload generator, which draws the
 *    witness values (and, for the synthetic family, which gates it
 *    emits);
 *  - `prover_seed` seeds the prover's blinding (r, s);
 *  - `vk_fnv1a64` is FNV-1a 64 over serializeVerifyingKey();
 *  - `proof_a`, `proof_b`, `proof_c` are the three serializePoint()
 *    tokens of serializeProof().
 *
 * For each entry the proof must come out byte-equal to the committed
 * points under the serial, bellperson and gzkp MSM engines at 1 and 4
 * threads. The committed BN254 proofs are then pairing-verified once
 * against the recomputed vk; the BLS12-381 entry (no pairing here) is
 * checked with verifyWithTrapdoor().
 *
 * A mismatch prints the recomputed value. Changing an entry is a
 * deliberate edit that the change's description has to justify: it
 * means proof bytes for a fixed (circuit, witness, seed) changed.
 *
 * The synthetic generator draws from std::uniform_real_distribution,
 * whose output is fixed by the standard library implementation; the
 * corpus was recorded with libstdc++.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "testkit/rng.hh"
#include "workload/workloads.hh"
#include "zkp/families.hh"
#include "zkp/groth16.hh"
#include "zkp/groth16_bn254.hh"
#include "zkp/serialize.hh"

using namespace gzkp;

namespace {

/** One parsed tests/golden/<name>.golden file. */
struct GoldenEntry {
    std::string family;
    std::vector<std::string> circuit; //!< generator name, then params
    std::uint64_t circuitSeed = 0;
    std::uint64_t witnessSeed = 0;
    std::uint64_t proverSeed = 0;
    std::string vkHash;
    std::string proofA, proofB, proofC;
};

GoldenEntry
loadEntry(const std::string &name)
{
    std::string path = std::string(GZKP_GOLDEN_DIR) + "/" + name +
                       ".golden";
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::map<std::string, std::vector<std::string>> kv;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, tok;
        ls >> key;
        while (ls >> tok)
            kv[key].push_back(tok);
    }
    auto one = [&](const char *key) {
        auto it = kv.find(key);
        if (it == kv.end() || it->second.size() != 1)
            throw std::runtime_error(path + ": need exactly one value for " +
                                     key);
        return it->second[0];
    };
    GoldenEntry e;
    e.family = one("family");
    e.circuit = kv["circuit"];
    if (e.circuit.empty())
        throw std::runtime_error(path + ": missing circuit");
    e.circuitSeed = std::stoull(one("circuit_seed"));
    e.witnessSeed = std::stoull(one("witness_seed"));
    e.proverSeed = std::stoull(one("prover_seed"));
    e.vkHash = one("vk_fnv1a64");
    e.proofA = one("proof_a");
    e.proofB = one("proof_b");
    e.proofC = one("proof_c");
    return e;
}

std::string
fnv1a64Hex(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::size_t
param(const GoldenEntry &e, std::size_t i)
{
    if (i >= e.circuit.size())
        throw std::runtime_error("circuit " + e.circuit[0] +
                                 ": missing parameter");
    return std::stoull(e.circuit[i]);
}

/** Rebuild the entry's circuit and witness from its generator. */
template <typename Fr>
workload::Builder<Fr>
buildCircuit(const GoldenEntry &e)
{
    testkit::Rng rng(e.witnessSeed);
    const std::string &kind = e.circuit[0];
    if (kind == "poseidon_merkle")
        return workload::makePoseidonMerkleCircuit<Fr>(
            param(e, 1), param(e, 2), param(e, 3), rng);
    if (kind == "mimc_merkle")
        return workload::makeMerkleCircuit<Fr>(param(e, 1), rng);
    if (kind == "poseidon_chain")
        return workload::makePoseidonChainCircuit<Fr>(param(e, 1), rng);
    if (kind == "synthetic")
        // Parameter 2 is the booleanity share in percent.
        return workload::makeSyntheticCircuit<Fr>(
            param(e, 1), double(param(e, 2)) / 100.0, rng);
    throw std::runtime_error("unknown circuit " + kind);
}

/**
 * Prove `e` under every engine x thread count and compare each
 * proof's points, and the vk hash, against the committed entry; then
 * verify the committed proof.
 */
template <typename Family>
void
checkEntry(const GoldenEntry &e)
{
    using G16 = zkp::Groth16<Family>;
    using Fr = typename Family::Fr;
    using G1Cfg = typename Family::G1Cfg;
    using G2Cfg = typename Family::G2Cfg;

    auto b = buildCircuit<Fr>(e);
    ASSERT_TRUE(b.cs().isSatisfied(b.assignment()));
    testkit::Rng srng(e.circuitSeed);
    auto keys = G16::setup(b.cs(), srng);
    EXPECT_EQ(fnv1a64Hex(zkp::serializeVerifyingKey<Family>(keys.vk)),
              e.vkHash);

    typename G16::ProofAux aux;
    auto prove = [&](const char *engine, auto policy,
                     std::size_t threads) {
        using Policy = decltype(policy);
        testkit::Rng prng(e.proverSeed);
        auto proof = G16::template prove<Policy>(
            keys.pk, b.cs(), b.assignment(), prng, &aux,
            zkp::CpuNttEngine<Fr>(), threads);
        SCOPED_TRACE(std::string(engine) + " threads=" +
                     std::to_string(threads));
        EXPECT_EQ(zkp::serializePoint<G1Cfg>(proof.a), e.proofA);
        EXPECT_EQ(zkp::serializePoint<G2Cfg>(proof.b), e.proofB);
        EXPECT_EQ(zkp::serializePoint<G1Cfg>(proof.c), e.proofC);
    };
    for (std::size_t t : {1, 4}) {
        prove("serial", zkp::SerialMsmPolicy{}, t);
        prove("bellperson", zkp::BellpersonMsmPolicy{}, t);
        prove("gzkp", zkp::GzkpMsmPolicy{}, t);
    }

    // Verify the committed bytes themselves, not a recomputed proof.
    typename G16::Proof golden;
    golden.a = zkp::deserializePoint<G1Cfg>(e.proofA);
    golden.b = zkp::deserializePoint<G2Cfg>(e.proofB);
    golden.c = zkp::deserializePoint<G1Cfg>(e.proofC);
    if constexpr (std::is_same_v<Family, zkp::Bn254Family>) {
        const auto &z = b.assignment();
        std::vector<Fr> pub(z.begin() + 1,
                            z.begin() + 1 + b.cs().numPublic());
        EXPECT_TRUE(zkp::verifyBn254(keys.vk, golden, pub));
    } else {
        EXPECT_TRUE(G16::verifyWithTrapdoor(keys, b.cs(), b.assignment(),
                                            golden, aux));
    }
}

class GoldenProof : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST_P(GoldenProof, BytesMatchCorpusOnEveryEngine)
{
    GoldenEntry e = loadEntry(GetParam());
    if (e.family == "bn254")
        checkEntry<zkp::Bn254Family>(e);
    else if (e.family == "bls12-381")
        checkEntry<zkp::Bls381Family>(e);
    else
        FAIL() << "unknown family " << e.family;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenProof,
                         ::testing::Values("bn254_poseidon_merkle",
                                           "bn254_mimc_merkle",
                                           "bn254_poseidon_chain",
                                           "bn254_synthetic",
                                           "bls12_381_synthetic"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });
