/// \file main.cpp
/// `perfbench <mode> --flag value ...`: the benchmark's one native program.
/// perfbench/run.py drives it; each mode prints one JSON line on stdout.

#include <cstdio>
#include <exception>
#include <string>

namespace perfbench {
int run_pipeline(int argc, char** argv);
int run_loadgen(int argc, char** argv);
int run_serve_trace(int argc, char** argv);
int run_selftest(int argc, char** argv);
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "pipeline") return perfbench::run_pipeline(argc, argv);
    if (mode == "loadgen") return perfbench::run_loadgen(argc, argv);
    if (mode == "serve-trace") return perfbench::run_serve_trace(argc, argv);
    if (mode == "selftest") return perfbench::run_selftest(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
    return 2;
  }
  std::fprintf(stderr, "usage: perfbench pipeline|loadgen|serve-trace|selftest --flag value ...\n");
  return 2;
}
