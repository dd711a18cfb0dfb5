#pragma once
/// Scratch file paths for tests. gtest_discover_tests runs every TEST as
/// its own process, so under `ctest -j` a fixed file name is shared by
/// processes that overwrite each other's output; a per-process path in the
/// test temp dir is not.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace rdns::test {

/// `name` under ::testing::TempDir(), prefixed with this process's pid.
[[nodiscard]] inline std::string temp_path(std::string_view name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + std::string{name};
}

}  // namespace rdns::test
