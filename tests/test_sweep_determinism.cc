// End-to-end determinism of the fairsched_exp binary: a sweep's CSV and
// streamed records must be byte-identical across thread counts and with
// the workload/baseline cache on or off.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(SweepDeterminism, OutputsMatchAcrossThreadsAndCache) {
  // --smoke drops BENCH_*.json into the working directory, so every run
  // happens in a private temporary one.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      std::string("fairsched-determinism-").append(std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto run = [&dir](const std::string& args) {
    std::string command = std::string("cd '").append(dir.string());
    command.append("' && '").append(FAIRSCHED_EXP_BINARY).append("' ");
    command.append(args).append(" > /dev/null 2>&1");
    EXPECT_EQ(std::system(command.c_str()), 0) << args;
  };
  auto same = [&dir](const char* a, const char* b) {
    const std::string lhs = read_file(dir / a);
    EXPECT_FALSE(lhs.empty()) << a;
    EXPECT_EQ(lhs, read_file(dir / b)) << a << " vs " << b;
  };

  run("table1 --smoke --threads=1 --csv=t1.csv");
  run("table1 --smoke --threads=8 --csv=t8.csv");
  same("t1.csv", "t8.csv");

  run("fig10 --smoke --threads=1 --csv=f1.csv --stream-records=r1.csv");
  run("fig10 --smoke --threads=8 --csv=f8.csv --stream-records=r8.csv");
  same("f1.csv", "f8.csv");
  same("r1.csv", "r8.csv");

  // The cache is a pure time optimization: cached output (any thread
  // count) must be bit-identical to the uncached path.
  run("fairshare-decay --smoke --threads=8 --csv=fd_cache.csv "
      "--stream-records=fdr_cache.csv");
  run("fairshare-decay --smoke --threads=1 --no-cache --csv=fd_nocache.csv "
      "--stream-records=fdr_nocache.csv");
  same("fd_cache.csv", "fd_nocache.csv");
  same("fdr_cache.csv", "fdr_nocache.csv");
  run("fig10 --smoke --threads=8 --no-cache --csv=f_nocache.csv "
      "--stream-records=r_nocache.csv");
  same("f8.csv", "f_nocache.csv");
  same("r8.csv", "r_nocache.csv");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
