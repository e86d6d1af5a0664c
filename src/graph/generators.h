// Deterministic synthetic graph generation. Each evaluation graph of the
// paper is reproduced as a scaled analog with the same degree-distribution
// shape (datasets.cc picks the shapes); everything is seeded, so a given
// (generator, seed, size) triple always yields the same CSR.

#ifndef EMOGI_GRAPH_GENERATORS_H_
#define EMOGI_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>

#include "graph/csr.h"

namespace emogi::graph {

// splitmix64-based deterministic RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ull) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return n ? Next() % n : 0; }
  // Uniform double in (0, 1] (never 0, safe for pow(u, negative)).
  double Uniform() {
    return (static_cast<double>(Next() >> 11) + 1.0) / 9007199254740993.0;
  }

 private:
  std::uint64_t state_;
};

// Degree-distribution shapes used by the dataset analogs.
enum class DegreeShape {
  kUniformRange,  // uniform integer in [param_a, param_b] (GAP-urand).
  kPareto,        // heavy tail: xm=param_a, alpha=param_b (web/kron graphs).
  kGaussian,      // mean=param_a, stddev=param_b, clamped (MOLIERE).
  kLogNormal,     // exp(N(param_a, param_b)) (social networks).
};

struct GeneratorSpec {
  VertexId vertices = 0;
  DegreeShape shape = DegreeShape::kUniformRange;
  double param_a = 16;
  double param_b = 48;
  // Degrees are clamped to [min_degree, max_degree] (and to V-1).
  EdgeIndex min_degree = 1;
  EdgeIndex max_degree = 1u << 20;
  bool directed = false;
  std::uint64_t seed = 1;
  std::string name;
};

// Builds a CSR with per-vertex degrees drawn from the spec's shape and
// sorted uniform-random neighbor ids.
Csr Generate(const GeneratorSpec& spec);

// Convenience used by the unit tests: uniform degrees in
// [avg_degree/2, 3*avg_degree/2].
Csr GenerateUniformRandom(VertexId vertices, double avg_degree,
                          std::uint64_t seed);

}  // namespace emogi::graph

#endif  // EMOGI_GRAPH_GENERATORS_H_
