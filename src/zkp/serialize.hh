/**
 * @file
 * Serialization for field elements, curve points, proofs, and
 * verification keys.
 *
 * Simple length-prefixed hex text format: portable, diffable, and
 * adequate for proofs that are three points long. A Groth16 proof
 * serializes to a few hundred bytes, consistent with the protocol's
 * succinctness property (paper Section 2.1: "<1 KB").
 */

#ifndef GZKP_ZKP_SERIALIZE_HH
#define GZKP_ZKP_SERIALIZE_HH

#include <sstream>
#include <stdexcept>
#include <string>

#include "zkp/groth16.hh"

namespace gzkp::zkp {

namespace detail {

/** Fixed-width lowercase hex of a BigInt (no 0x, zero padded). */
template <std::size_t N>
std::string
hexFixed(const ff::BigInt<N> &v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(N * 16, '0');
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = 0; j < 16; ++j) {
            out[out.size() - 1 - (i * 16 + j)] =
                digits[(v.limbs[i] >> (j * 4)) & 0xf];
        }
    }
    return out;
}

} // namespace detail

/** Serialize a prime-field element (standard form, fixed width). */
template <typename FpT>
std::string
serializeField(const FpT &v)
{
    return detail::hexFixed(v.toBigInt());
}

template <typename FpT>
FpT
deserializeField(const std::string &s)
{
    if (s.size() != FpT::kLimbs * 16)
        throw std::invalid_argument("deserializeField: bad length");
    auto v = ff::BigInt<FpT::kLimbs>::fromHex(s);
    // fromBigInt only assert()s canonicality; a deserializer must
    // reject non-canonical encodings (value >= p) in release builds
    // too, or two byte strings could decode to the same element.
    if (!(v < FpT::modulus()))
        throw std::invalid_argument(
            "deserializeField: non-canonical encoding (>= modulus)");
    return FpT::fromBigInt(v);
}

/** Serialize an Fp2 element as "c0.c1". */
template <typename Fp2T>
std::string
serializeField2(const Fp2T &v)
{
    return serializeField(v.c0) + "." + serializeField(v.c1);
}

template <typename Fp2T>
Fp2T
deserializeField2(const std::string &s)
{
    auto dot = s.find('.');
    if (dot == std::string::npos)
        throw std::invalid_argument("deserializeField2: no separator");
    using Fq = typename Fp2T::Fq;
    return Fp2T(deserializeField<Fq>(s.substr(0, dot)),
                deserializeField<Fq>(s.substr(dot + 1)));
}

namespace detail {

template <typename Field>
struct FieldCodec {
    static std::string enc(const Field &v) { return serializeField(v); }
    static Field dec(const std::string &s)
    {
        return deserializeField<Field>(s);
    }
};

/** Specialise for quadratic-extension coordinate fields (G2). */
template <typename Cfg>
struct FieldCodec<ff::Fp2T<Cfg>> {
    static std::string
    enc(const ff::Fp2T<Cfg> &v)
    {
        return serializeField2(v);
    }
    static ff::Fp2T<Cfg>
    dec(const std::string &s)
    {
        return deserializeField2<ff::Fp2T<Cfg>>(s);
    }
};

} // namespace detail

/** Serialize an affine point: "inf" or "x,y". */
template <typename Cfg>
std::string
serializePoint(const ec::AffinePoint<Cfg> &p)
{
    if (p.infinity)
        return "inf";
    using Codec = detail::FieldCodec<typename Cfg::Field>;
    return Codec::enc(p.x) + "," + Codec::enc(p.y);
}

template <typename Cfg>
ec::AffinePoint<Cfg>
deserializePoint(const std::string &s)
{
    if (s == "inf")
        return ec::AffinePoint<Cfg>::identity();
    auto comma = s.find(',');
    if (comma == std::string::npos)
        throw std::invalid_argument("deserializePoint: no separator");
    using Codec = detail::FieldCodec<typename Cfg::Field>;
    ec::AffinePoint<Cfg> p(Codec::dec(s.substr(0, comma)),
                           Codec::dec(s.substr(comma + 1)));
    if (!p.onCurve())
        throw std::invalid_argument("deserializePoint: not on curve");
    return p;
}

/** Serialize a Groth16 proof (A | B | C on separate lines). */
template <typename Family>
std::string
serializeProof(const typename Groth16<Family>::Proof &proof)
{
    std::ostringstream os;
    os << "gzkp-proof-v1 " << Family::name() << "\n";
    os << serializePoint<typename Family::G1Cfg>(proof.a) << "\n";
    os << serializePoint<typename Family::G2Cfg>(proof.b) << "\n";
    os << serializePoint<typename Family::G1Cfg>(proof.c) << "\n";
    return os.str();
}

template <typename Family>
typename Groth16<Family>::Proof
deserializeProof(const std::string &text)
{
    std::istringstream is(text);
    std::string header, curve;
    is >> header >> curve;
    if (header != "gzkp-proof-v1" || curve != Family::name())
        throw std::invalid_argument("deserializeProof: bad header");
    std::string a, b, c;
    is >> a >> b >> c;
    if (!is)
        throw std::invalid_argument("deserializeProof: truncated");
    typename Groth16<Family>::Proof p;
    p.a = deserializePoint<typename Family::G1Cfg>(a);
    p.b = deserializePoint<typename Family::G2Cfg>(b);
    p.c = deserializePoint<typename Family::G1Cfg>(c);
    // On-curve (checked per point above) is not enough for G2: its
    // cofactor is large, so confinement to a small subgroup survives
    // the curve equation. Reject anything outside the r-subgroup at
    // the trust boundary.
    if (!Groth16<Family>::inSubgroup(p))
        throw std::invalid_argument(
            "deserializeProof: point outside prime-order subgroup");
    return p;
}

/** Serialize a verification key (header, 4 anchors, IC points). */
template <typename Family>
std::string
serializeVerifyingKey(const typename Groth16<Family>::VerifyingKey &vk)
{
    std::ostringstream os;
    os << "gzkp-vk-v1 " << Family::name() << " " << vk.ic.size()
       << "\n";
    os << serializePoint<typename Family::G1Cfg>(vk.alphaG1) << "\n";
    os << serializePoint<typename Family::G2Cfg>(vk.betaG2) << "\n";
    os << serializePoint<typename Family::G2Cfg>(vk.gammaG2) << "\n";
    os << serializePoint<typename Family::G2Cfg>(vk.deltaG2) << "\n";
    for (const auto &p : vk.ic)
        os << serializePoint<typename Family::G1Cfg>(p) << "\n";
    return os.str();
}

template <typename Family>
typename Groth16<Family>::VerifyingKey
deserializeVerifyingKey(const std::string &text)
{
    std::istringstream is(text);
    std::string header, curve;
    std::size_t ic_count = 0;
    is >> header >> curve >> ic_count;
    if (header != "gzkp-vk-v1" || curve != Family::name())
        throw std::invalid_argument(
            "deserializeVerifyingKey: bad header");
    typename Groth16<Family>::VerifyingKey vk;
    std::string tok;
    is >> tok;
    vk.alphaG1 = deserializePoint<typename Family::G1Cfg>(tok);
    is >> tok;
    vk.betaG2 = deserializePoint<typename Family::G2Cfg>(tok);
    is >> tok;
    vk.gammaG2 = deserializePoint<typename Family::G2Cfg>(tok);
    is >> tok;
    vk.deltaG2 = deserializePoint<typename Family::G2Cfg>(tok);
    vk.ic.reserve(ic_count);
    for (std::size_t i = 0; i < ic_count; ++i) {
        is >> tok;
        vk.ic.push_back(
            deserializePoint<typename Family::G1Cfg>(tok));
    }
    if (!is)
        throw std::invalid_argument(
            "deserializeVerifyingKey: truncated");
    return vk;
}

} // namespace gzkp::zkp

#endif // GZKP_ZKP_SERIALIZE_HH
