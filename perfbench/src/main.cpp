// perfbench_sim: runs one benchmark workload once in this process and
// prints its result record as one JSON line (see report.hpp). Exit status
// is 0 only when every correctness check of the workload passed.
//
//   perfbench_sim --workload dos_flood|lite_population|s3_mixed
//                 --seed N [--traced] [--smoke]
//
// The simulator reads several BS_* environment knobs (stepper, scheduler,
// journal, gateway...). A stray one would silently turn a comparison into
// an ablation, so the driver refuses to run while any is set.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hpp"

extern char** environ;

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload NAME --seed N [--traced] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BS_", 3) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      return 2;
    }
  }

  perfbench::Report rep;
  if (opt.workload == "dos_flood") {
    perfbench::run_dos_flood(opt, rep);
  } else if (opt.workload == "lite_population") {
    perfbench::run_lite_population(opt, rep);
  } else if (opt.workload == "s3_mixed") {
    perfbench::run_s3_mixed(opt, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  rep.peak_rss_mb = perfbench::peak_rss_mb();
  rep.print_json(stdout, opt);
  return rep.all_ok() ? 0 : 1;
}
