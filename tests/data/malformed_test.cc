// Malformed-corpus suite for the data loaders: every corrupt shape must
// produce a diaca::Error whose message names the file and, for local
// defects, the offending line — never a crash, hang, or silent garbage
// matrix.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/error.h"
#include "data/loader.h"

namespace diaca::data {
namespace {

class MalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("diaca_malformed_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& content) {
    const std::string path = (dir_ / name).string();
    std::ofstream out(path);
    out << content;
    return path;
  }

  // Asserts the loader throws and the message carries the expected
  // fragments (file path always, line/row context where applicable).
  template <typename Loader>
  void ExpectError(Loader&& load, const std::string& path,
                   const std::string& fragment) {
    try {
      load(path);
      FAIL() << "expected diaca::Error for " << path;
    } catch (const Error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find(fragment), std::string::npos) << message;
    }
  }

  std::filesystem::path dir_;
};

TEST_F(MalformedTest, DenseEmptyFile) {
  ExpectError(LoadDenseMatrix, Write("empty.txt", ""), "empty file");
}

TEST_F(MalformedTest, DenseCommentOnlyFile) {
  ExpectError(LoadDenseMatrix, Write("c.txt", "# nothing here\n\n"),
              "empty file");
}

TEST_F(MalformedTest, DenseGarbageHeader) {
  ExpectError(LoadDenseMatrix, Write("h.txt", "banana\n"), "bad node count");
}

TEST_F(MalformedTest, DenseHeaderWithTrailingTokens) {
  ExpectError(LoadDenseMatrix, Write("ht.txt", "3 extra\n"),
              "trailing tokens after node count");
}

TEST_F(MalformedTest, DenseImplausibleNodeCount) {
  ExpectError(LoadDenseMatrix, Write("big.txt", "99999999\n"),
              "implausible node count");
}

TEST_F(MalformedTest, DenseTruncatedRows) {
  ExpectError(LoadDenseMatrix, Write("trunc.txt", "3\n0 1 2\n1 0 3\n"),
              "truncated: expected 3 rows, got 2");
}

TEST_F(MalformedTest, DenseRaggedShortRowNamesTheLine) {
  ExpectError(LoadDenseMatrix, Write("rag.txt", "3\n0 1 2\n1 0\n2 3 0\n"),
              "line 3: ragged row 1");
}

TEST_F(MalformedTest, DenseRaggedLongRow) {
  ExpectError(LoadDenseMatrix, Write("long.txt", "2\n0 1 7\n1 0\n"),
              "ragged row 0: more than 2 entries");
}

TEST_F(MalformedTest, DenseTrailingData) {
  ExpectError(LoadDenseMatrix, Write("trail.txt", "2\n0 1\n1 0\n9 9\n"),
              "trailing data after 2 rows");
}

TEST_F(MalformedTest, DenseNanEntry) {
  // "nan" is not a parseable latency: rejected at the token with the line.
  ExpectError(LoadDenseMatrix, Write("nan.txt", "2\n0 nan\nnan 0\n"),
              "line 2: ragged row 0");
}

TEST_F(MalformedTest, DenseInfEntry) {
  ExpectError(LoadDenseMatrix, Write("inf.txt", "2\n0 inf\ninf 0\n"),
              "line 2: ragged row 0");
}

TEST_F(MalformedTest, DenseNegativeEntry) {
  ExpectError(LoadDenseMatrix, Write("negm.txt", "2\n0 -4\n-4 0\n"),
              "finite and positive");
}

TEST_F(MalformedTest, DenseNanDiagonal) {
  ExpectError(LoadDenseMatrix, Write("nand.txt", "2\nnan 1\n1 0\n"),
              "ragged row 0");
}

TEST_F(MalformedTest, TriplesGarbageLineNamesTheLine) {
  ExpectError(LoadTriplesMatrix,
              Write("tg.txt", "0 1 10\nwat\n"),
              "line 2: expected 'u v latency'");
}

TEST_F(MalformedTest, TriplesTrailingTokens) {
  ExpectError(LoadTriplesMatrix, Write("tt.txt", "0 1 10 99\n"),
              "trailing tokens");
}

TEST_F(MalformedTest, TriplesNegativeId) {
  ExpectError(LoadTriplesMatrix, Write("tn.txt", "-1 1 10\n"),
              "negative node id");
}

TEST_F(MalformedTest, TriplesNanLatency) {
  ExpectError(LoadTriplesMatrix, Write("tnan.txt", "0 1 nan\n"),
              "expected 'u v latency'");
}

TEST_F(MalformedTest, TriplesNegativeLatency) {
  ExpectError(LoadTriplesMatrix, Write("tneg.txt", "0 1 -5\n"),
              "finite and positive");
}

TEST_F(MalformedTest, TriplesIdAboveDenseCapNamesTheLine) {
  // Node count 2^32 would wrap n * n to an empty pair table; 65536 is the
  // first id past the dense loader's 65536-node cap.
  ExpectError(LoadTriplesMatrix, Write("tw.txt", "4294967295 0 1.0\n"),
              "line 1: node id 4294967295 out of range (max 65535)");
  ExpectError(LoadTriplesMatrix, Write("tcap.txt", "0 1 1.0\n0 65536 1.0\n"),
              "line 2: node id 65536 out of range (max 65535)");
}

TEST_F(MalformedTest, GraphTriplesIdAboveNodeIndexNamesTheLine) {
  // An int32 cast would load this line as the link 0-1 of a 2-node
  // graph; 2147483647 is the first id whose node count a NodeIndex
  // cannot hold.
  ExpectError(LoadGraphTriples,
              Write("gw.txt", "4294967296 4294967297 5.0\n"),
              "line 1: node id 4294967297 out of range (max 2147483646)");
  ExpectError(LoadGraphTriples,
              Write("gcap.txt", "0 1 1.0\n2147483647 0 1.0\n"),
              "line 2: node id 2147483647 out of range (max 2147483646)");
}

TEST_F(MalformedTest, GraphTriplesWithTooFewLinksNamesBothCounts) {
  // One link cannot connect 2147483647 nodes; the loader refuses before
  // sizing a graph for them.
  ExpectError(LoadGraphTriples, Write("gsparse.txt", "0 2147483646 1.0\n"),
              "2147483647 nodes need at least 2147483646 links to be "
              "connected, got 1");
  ExpectError(LoadGraphTriples, Write("ggap.txt", "0 1 1.0\n1 3 1.0\n"),
              "4 nodes need at least 3 links to be connected, got 2");
}

TEST_F(MalformedTest, TriplesEmptyFile) {
  ExpectError(LoadTriplesMatrix, Write("te.txt", "# only a comment\n"),
              "no data");
}

TEST_F(MalformedTest, CommentsAndBlankLinesAreFineEverywhere) {
  const auto dense = LoadDenseMatrix(
      Write("ok.txt", "# dense\n\n2\n# row 0\n0 5\n\n5 0\n"));
  EXPECT_DOUBLE_EQ(dense(0, 1), 5.0);
  const auto triples =
      LoadTriplesMatrix(Write("okt.txt", "# triples\n\n0 1 8\n"));
  EXPECT_DOUBLE_EQ(triples(0, 1), 8.0);
}

}  // namespace
}  // namespace diaca::data
