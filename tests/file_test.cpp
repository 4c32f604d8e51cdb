// util/file.hpp: whole-file reads.  A regular file comes back byte for
// byte from its sized read, a file of unknown size (a FIFO) is read to
// EOF, and what cannot be opened or read is nullopt, never an empty
// document.
#include "util/file.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace adacheck::util {
namespace {

namespace fs = std::filesystem;

class ReadFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("adacheck_file_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

/// Bytes of every value, NUL included, longer than one read chunk.
std::string sample(std::size_t n) {
  std::string bytes(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<char>((i * 131 + i / 256) & 0xFF);
  }
  return bytes;
}

void write(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ReadFile, RegularFilesComeBackByteForByte) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{113 * 1024 + 7}}) {
    const std::string bytes = sample(n);
    write(path("f"), bytes);
    const auto read = read_file(path("f"));
    ASSERT_TRUE(read.has_value()) << n;
    EXPECT_EQ(*read, bytes) << n;
  }
}

TEST_F(ReadFile, AFileOfUnknownSizeIsReadToEof) {
  const std::string fifo = path("fifo");
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const std::string bytes = sample(100 * 1024 + 3);
  std::thread writer([&] { write(fifo, bytes); });
  const auto read = read_file(fifo);
  writer.join();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, bytes);
}

TEST_F(ReadFile, WhatCannotBeReadIsNullopt) {
  EXPECT_FALSE(read_file(path("missing")).has_value());
  EXPECT_FALSE(read_file(dir_.string()).has_value());
}

}  // namespace
}  // namespace adacheck::util
