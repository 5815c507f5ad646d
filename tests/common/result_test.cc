#include "common/result.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, ConstructionFromOkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> ok = 7;
  Result<int> err = Status::IOError("x");
  EXPECT_EQ(ok.value_or(-1), 7);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
}

Result<std::vector<int>> MakeVector() { return std::vector<int>{1, 2, 3}; }

TEST(ResultTest, RvalueAccessDoesNotDangle) {
  // A range-for keeps only its range expression's result alive, not the
  // temporary `Result` it came from: `value() &&` and `operator*() &&`
  // must hand back the value itself, not a reference into the temporary.
  int sum = 0;
  for (int x : MakeVector().value()) sum += x;
  for (int x : *MakeVector()) sum += x;
  EXPECT_EQ(sum, 12);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r->size(), 5u);
}

TEST(ResultTest, MutableValueAccess) {
  Result<std::vector<int>> r = std::vector<int>{1, 2};
  r.value().push_back(3);
  EXPECT_EQ(r->size(), 3u);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CYCLERANK_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  ASSERT_TRUE(Quarter(8).ok());
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(5).status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, CopySemantics) {
  Result<std::string> a = std::string("abc");
  Result<std::string> b = a;
  EXPECT_EQ(a.value(), "abc");
  EXPECT_EQ(b.value(), "abc");
}

}  // namespace
}  // namespace cyclerank
