#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "engine/txn.h"
#include "query/executor.h"
#include "query/expr.h"
#include "storage/table.h"

namespace sstore {
namespace {

Schema VoteSchema() {
  return Schema({{"phone", ValueType::kBigInt},
                 {"contestant", ValueType::kBigInt},
                 {"state", ValueType::kString}});
}

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>("votes", VoteSchema());
    ASSERT_TRUE(table_->CreateIndex("by_phone", {"phone"}, true).ok());
    ASSERT_TRUE(table_->CreateIndex("by_contestant", {"contestant"}, false).ok());
    Executor exec;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(exec.Insert(table_.get(),
                              {Value::BigInt(1000 + i), Value::BigInt(i % 3),
                               Value::String(i % 2 == 0 ? "MA" : "RI")})
                      .ok());
    }
  }

  std::unique_ptr<Table> table_;
  Executor exec_;
};

TEST(ExprTest, LiteralAndColumn) {
  Tuple row = {Value::BigInt(5), Value::String("x")};
  EXPECT_EQ(*LitInt(3)->Eval(row), Value::BigInt(3));
  EXPECT_EQ(*Col(1)->Eval(row), Value::String("x"));
  EXPECT_FALSE(Col(9)->Eval(row).ok());
}

TEST(ExprTest, Comparisons) {
  Tuple row = {Value::BigInt(5)};
  EXPECT_EQ(*Eq(Col(0), LitInt(5))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Ne(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Lt(Col(0), LitInt(6))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Ge(Col(0), LitInt(5))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*Gt(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Le(Col(0), LitInt(4))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, ComparisonWithNullIsFalse) {
  Tuple row = {Value::Null()};
  EXPECT_EQ(*Eq(Col(0), LitInt(5))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, IntegerArithmetic) {
  Tuple row;
  EXPECT_EQ(*Add(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(5));
  EXPECT_EQ(*Sub(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(-1));
  EXPECT_EQ(*Mul(LitInt(2), LitInt(3))->Eval(row), Value::BigInt(6));
  EXPECT_EQ(*Div(LitInt(7), LitInt(2))->Eval(row), Value::BigInt(3));
  EXPECT_EQ(*Mod(LitInt(7), LitInt(2))->Eval(row), Value::BigInt(1));
}

TEST(ExprTest, MixedArithmeticIsDouble) {
  Tuple row;
  Result<Value> v = Add(LitInt(2), LitDouble(0.5))->Eval(row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v->as_double(), 2.5);
}

TEST(ExprTest, DivisionByZeroFails) {
  Tuple row;
  EXPECT_FALSE(Div(LitInt(1), LitInt(0))->Eval(row).ok());
  EXPECT_FALSE(Mod(LitInt(1), LitInt(0))->Eval(row).ok());
  EXPECT_FALSE(Div(LitDouble(1.0), LitDouble(0.0))->Eval(row).ok());
}

TEST(ExprTest, NullPropagatesThroughArithmetic) {
  Tuple row = {Value::Null()};
  EXPECT_TRUE((*Add(Col(0), LitInt(1))->Eval(row)).is_null());
}

TEST(ExprTest, LogicShortCircuits) {
  Tuple row = {Value::BigInt(0)};
  // RHS would divide by zero; AND short-circuits on false LHS.
  ExprPtr bad = Gt(Div(LitInt(1), Col(0)), LitInt(0));
  EXPECT_EQ(*And(Gt(Col(0), LitInt(0)), bad)->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*Or(Eq(Col(0), LitInt(0)), bad)->Eval(row), Value::BigInt(1));
}

TEST(ExprTest, NotAndIsNull) {
  Tuple row = {Value::Null(), Value::BigInt(1)};
  EXPECT_EQ(*Not(Eq(Col(1), LitInt(1)))->Eval(row), Value::BigInt(0));
  EXPECT_EQ(*IsNull(Col(0))->Eval(row), Value::BigInt(1));
  EXPECT_EQ(*IsNull(Col(1))->Eval(row), Value::BigInt(0));
}

TEST(ExprTest, EvalPredicateNullExprIsTrue) {
  EXPECT_TRUE(*EvalPredicate(nullptr, {}));
}

TEST(ExprTest, ToStringIsReadable) {
  EXPECT_EQ(Eq(Col(0), LitInt(5))->ToString(), "(col0 = 5)");
}

TEST(ExprTest, CollectEqualitiesSeesOnlyTopLevelAndConjuncts) {
  std::vector<ColumnEquality> eqs;
  And(Eq(Col(0), LitInt(1)),
      And(Eq(LitString("x"), Col(2)),
          And(Or(Eq(Col(3), LitInt(4)), Eq(Col(3), LitInt(5))),
              And(Not(Eq(Col(4), LitInt(6))),
                  And(Eq(Col(5), Col(6)), Gt(Col(7), LitInt(8)))))))
      ->CollectEqualities(&eqs);
  ASSERT_EQ(eqs.size(), 2u);
  EXPECT_EQ(eqs[0].column, 0u);
  EXPECT_EQ(eqs[0].literal, Value::BigInt(1));
  EXPECT_EQ(eqs[1].column, 2u);
  EXPECT_EQ(eqs[1].literal, Value::String("x"));
}

TEST_F(QueryTest, FullScan) {
  ScanSpec spec;
  spec.table = table_.get();
  EXPECT_EQ((*exec_.Scan(spec)).size(), 10u);
}

TEST_F(QueryTest, PredicateScan) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.predicate = Eq(Col(2), LitString("MA"));
  EXPECT_EQ((*exec_.Scan(spec)).size(), 5u);
}

TEST_F(QueryTest, ProjectionAndLimit) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {1};
  spec.limit = 3;
  Result<std::vector<Tuple>> rows = exec_.Scan(spec);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].size(), 1u);
}

TEST_F(QueryTest, OrderByDescending) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {0};
  spec.order_by = {{0, /*descending=*/true}};
  spec.limit = 2;
  Result<std::vector<Tuple>> rows = exec_.Scan(spec);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0][0], Value::BigInt(1009));
  EXPECT_EQ((*rows)[1][0], Value::BigInt(1008));
}

TEST_F(QueryTest, ScanInvalidProjectionFails) {
  ScanSpec spec;
  spec.table = table_.get();
  spec.projection = {99};
  EXPECT_FALSE(exec_.Scan(spec).ok());
}

TEST_F(QueryTest, IndexScanPoint) {
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_phone", {Value::BigInt(1003)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::BigInt(0));
}

TEST_F(QueryTest, IndexScanWithResidualAndProjection) {
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_contestant", {Value::BigInt(0)},
                      Eq(Col(2), LitString("MA")), {0});
  ASSERT_TRUE(rows.ok());
  for (const Tuple& r : *rows) EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(rows->size(), 2u);  // contestants 0 at phones 1000,1003,1006,1009; MA = even
}

TEST_F(QueryTest, IndexScanReturnsRowsInScanOrderAfterSlotReuse) {
  // Delete contestant 0's first row, then re-insert for contestant 0: the
  // new row takes the freed, lower slot, so slot order differs from the
  // index's insertion order.
  ASSERT_EQ(*exec_.Delete(table_.get(), Eq(Col(0), LitInt(1000))), 1u);
  ASSERT_TRUE(exec_.Insert(table_.get(), {Value::BigInt(2000), Value::BigInt(0),
                                          Value::String("MA")})
                  .ok());
  Result<std::vector<Tuple>> indexed =
      exec_.IndexScan(table_.get(), "by_contestant", {Value::BigInt(0)});
  ScanSpec spec;
  spec.table = table_.get();
  spec.predicate = Eq(Col(1), LitInt(0));
  Result<std::vector<Tuple>> scanned = exec_.Scan(spec);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(indexed->size(), 4u);
  EXPECT_EQ((*indexed)[0][0], Value::BigInt(2000));
  EXPECT_EQ(*indexed, *scanned);
}

TEST_F(QueryTest, IndexScanMissingIndexFails) {
  EXPECT_TRUE(exec_.IndexScan(table_.get(), "nope", {Value::BigInt(1)})
                  .status()
                  .IsNotFound());
}

TEST_F(QueryTest, CountWithPredicate) {
  EXPECT_EQ(*exec_.Count(table_.get(), Eq(Col(1), LitInt(1))), 3u);
  EXPECT_EQ(*exec_.Count(table_.get()), 10u);
}

TEST_F(QueryTest, AggregateGlobal) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.aggregates = {{AggFunc::kCount, 0},
                     {AggFunc::kSum, 0},
                     {AggFunc::kMin, 0},
                     {AggFunc::kMax, 0},
                     {AggFunc::kAvg, 0}};
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  const Tuple& r = (*rows)[0];
  EXPECT_EQ(r[0], Value::BigInt(10));
  EXPECT_EQ(r[1], Value::BigInt(10045));
  EXPECT_EQ(r[2], Value::BigInt(1000));
  EXPECT_EQ(r[3], Value::BigInt(1009));
  EXPECT_DOUBLE_EQ(r[4].as_double(), 1004.5);
}

TEST_F(QueryTest, AggregateEmptyInputSqlSemantics) {
  Table empty("e", VoteSchema());
  AggregateSpec spec;
  spec.table = &empty;
  spec.aggregates = {{AggFunc::kCount, 0}, {AggFunc::kSum, 0}};
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::BigInt(0));
  EXPECT_TRUE((*rows)[0][1].is_null());
}

TEST_F(QueryTest, AggregateGroupByWithOrderAndLimit) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.group_by = {1};
  spec.aggregates = {{AggFunc::kCount, 0}};
  spec.order_by = {{1, /*descending=*/true}, {0, false}};
  spec.limit = 2;
  Result<std::vector<Tuple>> rows = exec_.Aggregate(spec);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Contestant 0 has 4 votes (1000,1003,1006,1009); 1 and 2 have 3 each.
  EXPECT_EQ((*rows)[0][0], Value::BigInt(0));
  EXPECT_EQ((*rows)[0][1], Value::BigInt(4));
  EXPECT_EQ((*rows)[1][1], Value::BigInt(3));
}

TEST_F(QueryTest, AggregateWithPredicate) {
  AggregateSpec spec;
  spec.table = table_.get();
  spec.predicate = Eq(Col(2), LitString("MA"));
  spec.aggregates = {{AggFunc::kCount, 0}};
  EXPECT_EQ((*exec_.Aggregate(spec))[0][0], Value::BigInt(5));
}

TEST_F(QueryTest, DeleteWithPredicate) {
  Result<size_t> n = exec_.Delete(table_.get(), Eq(Col(1), LitInt(2)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(table_->row_count(), 7u);
}

TEST_F(QueryTest, UpdateWithSetClauses) {
  std::vector<SetClause> sets = {{2, LitString("NY")},
                                 {1, Add(Col(1), LitInt(10))}};
  Result<size_t> n = exec_.Update(table_.get(), Eq(Col(0), LitInt(1000)), sets);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  Result<std::vector<Tuple>> rows =
      exec_.IndexScan(table_.get(), "by_phone", {Value::BigInt(1000)});
  EXPECT_EQ((*rows)[0][1], Value::BigInt(10));
  EXPECT_EQ((*rows)[0][2], Value::String("NY"));
}

TEST_F(QueryTest, UpdateSetUsesBeforeImage) {
  // Both clauses read col1's before-image, so order doesn't matter.
  std::vector<SetClause> sets = {{1, Add(Col(1), LitInt(1))},
                                 {0, Add(Col(1), LitInt(2000))}};
  ASSERT_TRUE(exec_.Update(table_.get(), Eq(Col(0), LitInt(1001)), sets).ok());
  Result<std::vector<Tuple>> rows = exec_.IndexScan(
      table_.get(), "by_phone", {Value::BigInt(2001)});  // 1 + 2000
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][1], Value::BigInt(2));  // 1 + 1
}

TEST_F(QueryTest, MutationLogReceivesBeforeImages) {
  struct Capture : MutationLog {
    int inserts = 0, deletes = 0, updates = 0, activates = 0;
    Tuple last_delete_before;
    void RecordInsert(Table*, RowId) override { ++inserts; }
    void RecordDelete(Table*, RowId, Tuple before, RowMeta) override {
      ++deletes;
      last_delete_before = std::move(before);
    }
    void RecordUpdate(Table*, RowId, Tuple) override { ++updates; }
    void RecordActivate(Table*, RowId, bool) override { ++activates; }
  } capture;
  Executor exec(&capture);
  ASSERT_TRUE(exec.Insert(table_.get(),
                          {Value::BigInt(1), Value::BigInt(1),
                           Value::String("VT")})
                  .ok());
  ASSERT_TRUE(exec.Delete(table_.get(), Eq(Col(0), LitInt(1))).ok());
  ASSERT_TRUE(exec.Update(table_.get(), Eq(Col(0), LitInt(1002)),
                          {{2, LitString("CT")}})
                  .ok());
  EXPECT_EQ(capture.inserts, 1);
  EXPECT_EQ(capture.deletes, 1);
  EXPECT_EQ(capture.updates, 1);
  EXPECT_EQ(capture.last_delete_before[0], Value::BigInt(1));
}

TEST_F(QueryTest, SortTuplesStableMultiKey) {
  std::vector<Tuple> rows = {{Value::BigInt(1), Value::String("b")},
                             {Value::BigInt(2), Value::String("a")},
                             {Value::BigInt(1), Value::String("a")}};
  SortTuples(&rows, {{0, false}, {1, false}});
  EXPECT_EQ(rows[0][1], Value::String("a"));
  EXPECT_EQ(rows[0][0], Value::BigInt(1));
  EXPECT_EQ(rows[2][0], Value::BigInt(2));
}

// ---- Access paths: a table with indexes answers every statement exactly
// like an index-free copy of itself, row order and undo order included.

Schema PathSchema() {
  return Schema({{"id", ValueType::kBigInt},
                 {"grp", ValueType::kBigInt},
                 {"tag", ValueType::kString},
                 {"score", ValueType::kDouble}});
}

constexpr int64_t k2Pow53 = int64_t{1} << 53;

// The same rows either way: NULL and TIMESTAMP-typed grp keys (one of them
// numerically equal to BIGINT 2^53 but not its int64), a NaN score, staged
// rows, and reused slots so that slot order differs from id order. With
// `indexed` the table also has unique, non-unique, composite and DOUBLE
// indexes.
std::unique_ptr<Table> MakePathTable(bool indexed) {
  auto t = std::make_unique<Table>("paths", PathSchema());
  if (indexed) {
    EXPECT_TRUE(t->CreateIndex("by_grp", {"grp"}, false).ok());
    EXPECT_TRUE(t->CreateIndex("pk", {"id"}, true).ok());
    EXPECT_TRUE(t->CreateIndex("by_grp_tag", {"grp", "tag"}, false).ok());
    EXPECT_TRUE(t->CreateIndex("by_score", {"score"}, false).ok());
  }
  Table* raw = t.get();
  auto insert = [raw](int64_t id) {
    Value grp = id % 7 == 6    ? Value::Null()
                : id % 11 == 1 ? Value::Timestamp(1)
                : id == 17     ? Value::Timestamp(k2Pow53 + 1)
                               : Value::BigInt(id % 3);
    Value score = id == 13 ? Value::Double(std::nan(""))
                           : Value::Double(0.5 * static_cast<double>(id));
    RowMeta meta;
    meta.active = id % 5 != 4;
    EXPECT_TRUE(raw->Insert({Value::BigInt(id), grp,
                             Value::String(id % 2 == 0 ? "a" : "b"), score},
                            meta)
                    .ok());
  };
  for (int64_t id = 0; id < 24; ++id) insert(id);
  for (RowId rid : {1, 8, 15}) EXPECT_TRUE(raw->Delete(rid).ok());
  for (int64_t id = 100; id < 103; ++id) insert(id);
  return t;
}

// Every slot, row and row meta.
std::string Dump(const Table& t) {
  std::string out;
  t.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta& meta) {
        out += std::to_string(rid) + " " + TupleToString(row) + " batch " +
               std::to_string(meta.batch_id) + " seq " +
               std::to_string(meta.seq) + (meta.active ? "\n" : " staged\n");
        return true;
      },
      /*include_staged=*/true);
  return out;
}

// Each index holds exactly one entry per live row, under the row's key.
void ExpectIndexesConsistent(const Table& t) {
  for (const auto& idx : t.indexes()) {
    EXPECT_EQ(idx->EntryCount(), t.row_count()) << idx->name();
    t.ForEach(
        [&](RowId rid, const Tuple& row, const RowMeta&) {
          std::vector<RowId> rids = idx->Lookup(idx->ExtractKey(row));
          EXPECT_NE(std::find(rids.begin(), rids.end(), rid), rids.end())
              << idx->name() << " misses row " << rid;
          return true;
        },
        /*include_staged=*/true);
  }
}

std::string Render(const Result<std::vector<Tuple>>& rows) {
  if (!rows.ok()) return "error " + rows.status().ToString();
  std::string out;
  for (const Tuple& row : *rows) out += TupleToString(row) + "\n";
  return out;
}

template <typename T>
std::string Render(const Result<T>& r) {
  return r.ok() ? std::to_string(*r) : "error " + r.status().ToString();
}

// An undo log that also renders what it records, in order.
class RenderingUndoLog : public UndoLog {
 public:
  void RecordDelete(Table* table, RowId rid, Tuple before,
                    RowMeta meta) override {
    trace += "delete " + std::to_string(rid) + " " + TupleToString(before) +
             "\n";
    UndoLog::RecordDelete(table, rid, std::move(before), meta);
  }
  void RecordUpdate(Table* table, RowId rid, Tuple before) override {
    trace += "update " + std::to_string(rid) + " " + TupleToString(before) +
             "\n";
    UndoLog::RecordUpdate(table, rid, std::move(before));
  }

  std::string trace;
};

TEST(AccessPathTest, IndexedTableAnswersLikeIndexFreeCopy) {
  const std::vector<std::pair<std::string, ExprPtr>> predicates = {
      {"no predicate", nullptr},
      {"unique key", Eq(Col(0), LitInt(3))},
      {"unique key, literal first", Eq(LitInt(3), Col(0))},
      {"unique key of a staged row", Eq(Col(0), LitInt(4))},
      {"unique key of a reused slot", Eq(Col(0), LitInt(101))},
      {"absent unique key", Eq(Col(0), LitInt(999))},
      {"non-unique key", Eq(Col(1), LitInt(1))},
      {"non-unique key, other rows null", Eq(Col(1), LitInt(0))},
      {"composite key", And(Eq(Col(2), LitString("a")), Eq(Col(1), LitInt(0)))},
      {"key plus residual",
       And(Eq(Col(1), LitInt(2)), Gt(Col(3), LitDouble(3.0)))},
      {"residual first", And(Lt(Col(3), LitDouble(6.0)), Eq(Col(1), LitInt(2)))},
      {"contradictory keys", And(Eq(Col(0), LitInt(3)), Eq(Col(0), LitInt(5)))},
      {"null literal", Eq(Col(1), Lit(Value::Null()))},
      {"is null", IsNull(Col(1))},
      {"double literal on bigint key", Eq(Col(0), LitDouble(5.0))},
      {"timestamp literal on bigint key", Eq(Col(1), Lit(Value::Timestamp(1)))},
      {"string literal on bigint key", Eq(Col(0), LitString("3"))},
      {"eq under or", Or(Eq(Col(0), LitInt(3)), Eq(Col(0), LitInt(7)))},
      {"eq under not", Not(Eq(Col(1), LitInt(0)))},
      {"and under or",
       Or(And(Eq(Col(0), LitInt(3)), Eq(Col(1), LitInt(0))),
          Eq(Col(0), LitInt(9)))},
      {"col = col", Eq(Col(0), Col(1))},
      {"bigint literal 2^53", Eq(Col(1), LitInt(k2Pow53))},
      {"double key (a NaN row equals anything)", Eq(Col(3), LitDouble(1.5))},
  };
  using Write = std::function<Result<size_t>(const Executor&, Table*,
                                             const ExprPtr&, bool)>;
  const std::vector<std::pair<std::string, Write>> writes = {
      {"update rewriting every indexed key",
       [](const Executor& e, Table* t, const ExprPtr& p, bool staged) {
         return e.Update(t, p,
                         {{0, Add(Col(0), LitInt(1000))},
                          {1, LitInt(2)},
                          {2, LitString("z")}},
                         staged);
       }},
      {"update failing part-way (division by zero at id % 4 == 0)",
       [](const Executor& e, Table* t, const ExprPtr& p, bool staged) {
         return e.Update(t, p, {{1, Div(LitInt(12), Mod(Col(0), LitInt(4)))}},
                         staged);
       }},
      {"delete",
       [](const Executor& e, Table* t, const ExprPtr& p, bool staged) {
         return e.Delete(t, p, staged);
       }},
  };

  for (const auto& [name, predicate] : predicates) {
    for (bool staged : {false, true}) {
      SCOPED_TRACE(name + (staged ? ", staged rows included" : ""));
      std::unique_ptr<Table> indexed = MakePathTable(/*indexed=*/true);
      std::unique_ptr<Table> plain = MakePathTable(/*indexed=*/false);
      const std::string initial = Dump(*plain);
      ASSERT_EQ(Dump(*indexed), initial);
      Executor exec;

      ScanSpec scan;
      scan.predicate = predicate;
      scan.include_staged = staged;
      std::vector<ScanSpec> scans(4, scan);
      scans[1].limit = 1;
      scans[2].projection = {3, 0};
      scans[2].order_by = {{0, /*descending=*/true}};
      scans[2].limit = 2;
      scans[3].projection = {2};
      for (ScanSpec& s : scans) {
        s.table = indexed.get();
        std::string got = Render(exec.Scan(s));
        s.table = plain.get();
        EXPECT_EQ(got, Render(exec.Scan(s)));
      }
      if (!staged) {
        EXPECT_EQ(Render(exec.Count(indexed.get(), predicate)),
                  Render(exec.Count(plain.get(), predicate)));
      }
      AggregateSpec agg;
      agg.predicate = predicate;
      agg.include_staged = staged;
      agg.group_by = {1};
      agg.aggregates = {{AggFunc::kCount, 0}, {AggFunc::kSum, 3}};
      agg.table = indexed.get();
      std::string got = Render(exec.Aggregate(agg));
      agg.table = plain.get();
      EXPECT_EQ(got, Render(exec.Aggregate(agg)));

      for (const auto& [write_name, write] : writes) {
        SCOPED_TRACE(write_name);
        RenderingUndoLog indexed_log, plain_log;
        Result<size_t> n_indexed =
            write(Executor(&indexed_log), indexed.get(), predicate, staged);
        Result<size_t> n_plain =
            write(Executor(&plain_log), plain.get(), predicate, staged);
        EXPECT_EQ(Render(n_indexed), Render(n_plain));
        EXPECT_EQ(indexed_log.trace, plain_log.trace);
        EXPECT_EQ(Dump(*indexed), Dump(*plain));
        ExpectIndexesConsistent(*indexed);
        ASSERT_TRUE(indexed_log.Rollback().ok());
        ASSERT_TRUE(plain_log.Rollback().ok());
        EXPECT_EQ(Dump(*indexed), initial);
        EXPECT_EQ(Dump(*plain), initial);
        ExpectIndexesConsistent(*indexed);
      }
    }
  }
}

TEST(AccessPathTest, PointPredicateVisitsOnlyIndexCandidates) {
  // The leading conjunct divides by zero on row id 5 only; a scan reaches
  // that row, the pk probe for id 3 never does.
  ExprPtr predicate =
      And(Ge(Div(LitInt(1), Sub(Col(0), LitInt(5))), LitInt(-1)),
          Eq(Col(0), LitInt(3)));
  std::unique_ptr<Table> indexed = MakePathTable(/*indexed=*/true);
  std::unique_ptr<Table> plain = MakePathTable(/*indexed=*/false);
  Executor exec;
  EXPECT_EQ(Render(exec.Count(indexed.get(), predicate)), "1");
  EXPECT_FALSE(exec.Count(plain.get(), predicate).ok());
  Result<size_t> updated =
      exec.Update(indexed.get(), predicate, {{2, LitString("c")}});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 1u);
  EXPECT_FALSE(exec.Update(plain.get(), predicate, {{2, LitString("c")}}).ok());
}

TEST(AccessPathTest, CountSkipsStagedRows) {
  std::unique_ptr<Table> t = MakePathTable(/*indexed=*/true);
  Executor exec;
  EXPECT_EQ(*exec.Count(t.get()), t->active_count());
  EXPECT_EQ(*exec.Count(t.get(), Eq(Col(0), LitInt(4))), 0u);  // staged
  EXPECT_EQ(*exec.Count(t.get(), Eq(Col(0), LitInt(3))), 1u);
}

}  // namespace
}  // namespace sstore
