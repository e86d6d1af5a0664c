// The process-wide experiment registry. Each figure/table lives in one
// translation unit that registers an `Experiment` descriptor via
// EMOGI_REGISTER_EXPERIMENT at static-init time; the `emogi_bench`
// driver resolves ids through the one registry -- adding a scenario is
// one new registered experiment, never a new hand-rolled main().

#ifndef EMOGI_BENCH_REGISTRY_H_
#define EMOGI_BENCH_REGISTRY_H_

#include <string>
#include <vector>

#include "bench/options.h"
#include "bench/report.h"

namespace emogi::bench {

struct RunContext {
  Options options;
  // True when --selfcheck was passed; experiments without selfcheck
  // support ignore it (the driver warns).
  bool selfcheck = false;
};

// Fills `report` and returns the process exit code (nonzero = the
// experiment's own acceptance gate failed, e.g. fig13's --selfcheck).
using ExperimentRunFn = int (*)(const RunContext&, Report*);

struct Experiment {
  std::string id;     // Stable CLI id, e.g. "fig09".
  std::string title;  // One-line description for `emogi_bench list`.
  std::vector<std::string> tags;
  bool has_selfcheck = false;
  ExperimentRunFn run = nullptr;
};

class Registry {
 public:
  static Registry& Instance();

  // Dies on a duplicate id -- two experiments claiming one id is a
  // build-time authoring bug, not a runtime condition.
  void Register(Experiment experiment);

  // nullptr when `id` is not registered.
  const Experiment* Find(const std::string& id) const;

  // All experiments, sorted by id.
  std::vector<const Experiment*> All() const;

 private:
  std::vector<Experiment> experiments_;
};

struct Registrar {
  explicit Registrar(Experiment experiment);
};

}  // namespace emogi::bench

// Registers `experiment` (a braced Experiment initializer) under a
// unique static with `name` in it. Use at namespace scope in the
// experiment's translation unit.
#define EMOGI_REGISTER_EXPERIMENT(name, ...)                     \
  static const ::emogi::bench::Registrar emogi_registrar_##name( \
      ::emogi::bench::Experiment __VA_ARGS__)

#endif  // EMOGI_BENCH_REGISTRY_H_
