#include "query/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

namespace sstore {

namespace {

Tuple Project(const Tuple& row, const std::vector<size_t>& projection) {
  if (projection.empty()) return row;
  Tuple out;
  out.reserve(projection.size());
  for (size_t c : projection) out.push_back(row[c]);
  return out;
}

Status ValidateProjection(const Table& table,
                          const std::vector<size_t>& projection) {
  for (size_t c : projection) {
    if (c >= table.schema().num_columns()) {
      return Status::OutOfRange("projection column " + std::to_string(c) +
                                " out of range for table '" + table.name() +
                                "'");
    }
  }
  return Status::OK();
}

// Below this magnitude every int64 converts to double exactly, so when
// Value::Compare equates a BIGINT with a TIMESTAMP numerically the two hold
// the same int64 and hash alike.
constexpr int64_t kExactIntInDouble = int64_t{1} << 53;

// The literal that may probe an index on `column`: one bound to it by `eqs`
// whose type is the column's schema type (so never NULL). DOUBLE columns never
// probe: Value::Compare equates NaN with every double, which no hash matches.
const Value* ProbeLiteral(const Schema& schema, size_t column,
                          const std::vector<ColumnEquality>& eqs) {
  ValueType type = schema.column(column).type;
  if (type == ValueType::kDouble) return nullptr;
  for (const ColumnEquality& eq : eqs) {
    if (eq.column != column || eq.literal.type() != type) continue;
    if (type != ValueType::kString &&
        (eq.literal.as_int64() <= -kExactIntInDouble ||
         eq.literal.as_int64() >= kExactIntInDouble)) {
      continue;
    }
    return &eq.literal;
  }
  return nullptr;
}

// The access path. When `predicate` binds every key column of one of the
// table's hash indexes, returns that index's row ids for the key in slot
// order: a superset of the rows the predicate accepts. Of several such
// indexes a unique one wins, then the one with more key columns. Otherwise
// nullopt: only a scan can find the rows.
std::optional<std::vector<RowId>> IndexCandidates(const Table& table,
                                                  const ExprPtr& predicate) {
  if (predicate == nullptr || table.indexes().empty()) return std::nullopt;
  std::vector<ColumnEquality> eqs;
  predicate->CollectEqualities(&eqs);
  if (eqs.empty()) return std::nullopt;
  const HashIndex* best = nullptr;
  Tuple best_key;
  auto rank = [](const HashIndex* idx) {
    return std::make_pair(idx->unique(), idx->key_columns().size());
  };
  for (const auto& idx : table.indexes()) {
    if (best != nullptr && rank(idx.get()) <= rank(best)) continue;
    Tuple key;
    for (size_t c : idx->key_columns()) {
      const Value* lit = ProbeLiteral(table.schema(), c, eqs);
      if (lit == nullptr) break;
      key.push_back(*lit);
    }
    if (key.size() < idx->key_columns().size()) continue;
    best = idx.get();
    best_key = std::move(key);
  }
  if (best == nullptr) return std::nullopt;
  std::vector<RowId> rids = best->Lookup(best_key);
  std::sort(rids.begin(), rids.end());
  return rids;
}

// ForEachMatch's index path: visits each of `rids` (slot order) whose row
// `predicate` accepts, with the same staged-row and early-stop rules.
template <typename Fn>
Status ForEachCandidate(const Table& table, const std::vector<RowId>& rids,
                        const ExprPtr& predicate, bool include_staged,
                        Fn&& fn) {
  for (RowId rid : rids) {
    SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta, table.GetMeta(rid));
    if (!include_staged && !meta->active) continue;
    SSTORE_ASSIGN_OR_RETURN(const Tuple* row, table.Get(rid));
    SSTORE_ASSIGN_OR_RETURN(bool match, EvalPredicate(predicate, *row));
    if (match && !fn(rid, *row)) break;
  }
  return Status::OK();
}

// Calls `fn(rid, row)` in slot order for every row `predicate` accepts,
// skipping staged rows unless `include_staged`; `fn` returns false to stop.
// Index candidates are re-checked against the full predicate, so both paths
// visit the same rows in the same order.
template <typename Fn>
Status ForEachMatch(const Table& table, const ExprPtr& predicate,
                    bool include_staged, Fn&& fn) {
  if (std::optional<std::vector<RowId>> rids =
          IndexCandidates(table, predicate)) {
    return ForEachCandidate(table, *rids, predicate, include_staged, fn);
  }
  Status err = Status::OK();
  table.ForEach(
      [&](RowId rid, const Tuple& row, const RowMeta&) {
        Result<bool> match = EvalPredicate(predicate, row);
        if (!match.ok()) {
          err = match.status();
          return false;
        }
        return !*match || fn(rid, row);
      },
      include_staged);
  return err;
}

}  // namespace

void SortTuples(std::vector<Tuple>* rows,
                const std::vector<OrderBySpec>& order_by) {
  if (order_by.empty()) return;
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const Tuple& a, const Tuple& b) {
                     for (const OrderBySpec& ob : order_by) {
                       int c = a[ob.column].Compare(b[ob.column]);
                       if (c != 0) return ob.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

Result<std::vector<Tuple>> Executor::Scan(const ScanSpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("scan requires a table");
  }
  SSTORE_RETURN_NOT_OK(ValidateProjection(*spec.table, spec.projection));
  std::vector<Tuple> out;
  // With ordering we must collect everything before applying the limit.
  bool early_limit = spec.order_by.empty() && spec.limit.has_value();
  SSTORE_RETURN_NOT_OK(ForEachMatch(
      *spec.table, spec.predicate, spec.include_staged,
      [&](RowId, const Tuple& row) {
        out.push_back(Project(row, spec.projection));
        return !(early_limit && out.size() >= *spec.limit);
      }));
  SortTuples(&out, spec.order_by);
  if (spec.limit.has_value() && out.size() > *spec.limit) {
    out.resize(*spec.limit);
  }
  return out;
}

Result<std::vector<Tuple>> Executor::IndexScan(
    Table* table, const std::string& index_name, const Tuple& key,
    const ExprPtr& residual, std::vector<size_t> projection) const {
  if (table == nullptr) {
    return Status::InvalidArgument("index scan requires a table");
  }
  SSTORE_RETURN_NOT_OK(ValidateProjection(*table, projection));
  SSTORE_ASSIGN_OR_RETURN(std::vector<RowId> rids,
                          table->IndexLookup(index_name, key));
  std::sort(rids.begin(), rids.end());  // slot order, as Scan returns rows
  std::vector<Tuple> out;
  SSTORE_RETURN_NOT_OK(ForEachCandidate(
      *table, rids, residual, /*include_staged=*/false,
      [&](RowId, const Tuple& row) {
        out.push_back(Project(row, projection));
        return true;
      }));
  return out;
}

Result<size_t> Executor::Count(Table* table, const ExprPtr& predicate) const {
  if (table == nullptr) {
    return Status::InvalidArgument("count requires a table");
  }
  if (predicate == nullptr) return table->active_count();
  size_t n = 0;
  SSTORE_RETURN_NOT_OK(ForEachMatch(*table, predicate, /*include_staged=*/false,
                                    [&](RowId, const Tuple&) {
                                      ++n;
                                      return true;
                                    }));
  return n;
}

Result<std::vector<Tuple>> Executor::Aggregate(const AggregateSpec& spec) const {
  if (spec.table == nullptr) {
    return Status::InvalidArgument("aggregate requires a table");
  }
  size_t arity = spec.table->schema().num_columns();
  for (size_t c : spec.group_by) {
    if (c >= arity) {
      return Status::OutOfRange("group-by column out of range");
    }
  }
  for (const AggExpr& a : spec.aggregates) {
    if (a.func != AggFunc::kCount && a.column >= arity) {
      return Status::OutOfRange("aggregate column out of range");
    }
  }

  struct AggState {
    int64_t count = 0;         // rows seen (for COUNT / AVG denominators)
    int64_t non_null = 0;      // non-null inputs for this aggregate
    double sum = 0;
    bool sum_is_int = true;
    int64_t isum = 0;
    Value min, max;
  };
  struct GroupState {
    Tuple key;
    std::vector<AggState> aggs;
  };

  std::unordered_map<Tuple, GroupState, TupleHasher> groups;
  // Global aggregation gets one implicit group keyed by the empty tuple.
  if (spec.group_by.empty()) {
    GroupState g;
    g.aggs.resize(spec.aggregates.size());
    groups.emplace(Tuple{}, std::move(g));
  }

  Status err = Status::OK();
  Status visited = ForEachMatch(
      *spec.table, spec.predicate, spec.include_staged,
      [&](RowId, const Tuple& row) {
        Tuple key;
        key.reserve(spec.group_by.size());
        for (size_t c : spec.group_by) key.push_back(row[c]);
        auto [it, inserted] = groups.try_emplace(key);
        GroupState& g = it->second;
        if (inserted) {
          g.key = std::move(key);
          g.aggs.resize(spec.aggregates.size());
        }
        for (size_t i = 0; i < spec.aggregates.size(); ++i) {
          const AggExpr& a = spec.aggregates[i];
          AggState& st = g.aggs[i];
          ++st.count;
          if (a.func == AggFunc::kCount) continue;
          const Value& v = row[a.column];
          if (v.is_null()) continue;
          ++st.non_null;
          Result<double> num = v.ToNumeric();
          if (!num.ok() &&
              (a.func == AggFunc::kSum || a.func == AggFunc::kAvg)) {
            err = num.status();
            return false;
          }
          if (num.ok()) {
            st.sum += *num;
            if (v.type() == ValueType::kBigInt ||
                v.type() == ValueType::kTimestamp) {
              st.isum += v.as_int64();
            } else {
              st.sum_is_int = false;
            }
          }
          if (st.non_null == 1) {
            st.min = v;
            st.max = v;
          } else {
            if (v.Compare(st.min) < 0) st.min = v;
            if (v.Compare(st.max) > 0) st.max = v;
          }
        }
        return true;
      });
  SSTORE_RETURN_NOT_OK(visited);
  SSTORE_RETURN_NOT_OK(err);

  std::vector<Tuple> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) {
    Tuple row = g.key;
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      const AggExpr& a = spec.aggregates[i];
      const AggState& st = g.aggs[i];
      switch (a.func) {
        case AggFunc::kCount:
          row.push_back(Value::BigInt(st.count));
          break;
        case AggFunc::kSum:
          if (st.non_null == 0) {
            row.push_back(Value::Null());
          } else if (st.sum_is_int) {
            row.push_back(Value::BigInt(st.isum));
          } else {
            row.push_back(Value::Double(st.sum));
          }
          break;
        case AggFunc::kAvg:
          row.push_back(st.non_null == 0
                            ? Value::Null()
                            : Value::Double(st.sum /
                                            static_cast<double>(st.non_null)));
          break;
        case AggFunc::kMin:
          row.push_back(st.non_null == 0 ? Value::Null() : st.min);
          break;
        case AggFunc::kMax:
          row.push_back(st.non_null == 0 ? Value::Null() : st.max);
          break;
      }
    }
    out.push_back(std::move(row));
  }

  SortTuples(&out, spec.order_by);
  if (spec.limit.has_value() && out.size() > *spec.limit) {
    out.resize(*spec.limit);
  }
  return out;
}

Result<RowId> Executor::Insert(Table* table, Tuple row, int64_t batch_id,
                               bool active) const {
  if (table == nullptr) {
    return Status::InvalidArgument("insert requires a table");
  }
  RowMeta meta;
  meta.batch_id = batch_id;
  meta.active = active;
  SSTORE_ASSIGN_OR_RETURN(RowId rid, table->Insert(std::move(row), meta));
  if (mlog_ != nullptr) mlog_->RecordInsert(table, rid);
  return rid;
}

Result<size_t> Executor::InsertMany(Table* table,
                                    const std::vector<Tuple>& rows,
                                    int64_t batch_id, bool active) const {
  size_t n = 0;
  for (const Tuple& row : rows) {
    SSTORE_ASSIGN_OR_RETURN(RowId rid, Insert(table, row, batch_id, active));
    (void)rid;
    ++n;
  }
  return n;
}

Result<size_t> Executor::InsertMany(Table* table, std::vector<Tuple>&& rows,
                                    int64_t batch_id, bool active) const {
  size_t n = 0;
  for (Tuple& row : rows) {
    SSTORE_ASSIGN_OR_RETURN(RowId rid,
                            Insert(table, std::move(row), batch_id, active));
    (void)rid;
    ++n;
  }
  rows.clear();  // rows are moved-from; don't leave husks for the caller
  return n;
}

Result<size_t> Executor::Delete(Table* table, const ExprPtr& predicate,
                                bool include_staged) const {
  if (table == nullptr) {
    return Status::InvalidArgument("delete requires a table");
  }
  std::vector<RowId> victims;
  SSTORE_RETURN_NOT_OK(ForEachMatch(*table, predicate, include_staged,
                                    [&](RowId rid, const Tuple&) {
                                      victims.push_back(rid);
                                      return true;
                                    }));
  for (RowId rid : victims) {
    SSTORE_RETURN_NOT_OK(DeleteRow(table, rid));
  }
  return victims.size();
}

Status Executor::DeleteRow(Table* table, RowId rid) const {
  SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta_ptr, table->GetMeta(rid));
  RowMeta meta = *meta_ptr;
  SSTORE_ASSIGN_OR_RETURN(Tuple before, table->Delete(rid));
  if (mlog_ != nullptr) {
    mlog_->RecordDelete(table, rid, std::move(before), meta);
  }
  return Status::OK();
}

Result<size_t> Executor::Update(Table* table, const ExprPtr& predicate,
                                const std::vector<SetClause>& sets,
                                bool include_staged) const {
  if (table == nullptr) {
    return Status::InvalidArgument("update requires a table");
  }
  size_t arity = table->schema().num_columns();
  for (const SetClause& s : sets) {
    if (s.column >= arity) {
      return Status::OutOfRange("SET column out of range");
    }
  }
  std::vector<RowId> victims;
  SSTORE_RETURN_NOT_OK(ForEachMatch(*table, predicate, include_staged,
                                    [&](RowId rid, const Tuple&) {
                                      victims.push_back(rid);
                                      return true;
                                    }));
  for (RowId rid : victims) {
    SSTORE_ASSIGN_OR_RETURN(const Tuple* cur, table->Get(rid));
    Tuple next = *cur;
    for (const SetClause& s : sets) {
      SSTORE_ASSIGN_OR_RETURN(Value v, s.value->Eval(*cur));
      next[s.column] = std::move(v);
    }
    SSTORE_ASSIGN_OR_RETURN(Tuple before, table->Update(rid, std::move(next)));
    if (mlog_ != nullptr) mlog_->RecordUpdate(table, rid, std::move(before));
  }
  return victims.size();
}

Status Executor::SetActive(Table* table, RowId rid, bool active) const {
  SSTORE_ASSIGN_OR_RETURN(const RowMeta* meta, table->GetMeta(rid));
  bool was = meta->active;
  if (was == active) return Status::OK();
  SSTORE_RETURN_NOT_OK(table->SetActive(rid, active));
  if (mlog_ != nullptr) mlog_->RecordActivate(table, rid, was);
  return Status::OK();
}

}  // namespace sstore
