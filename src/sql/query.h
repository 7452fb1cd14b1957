#ifndef RAFIKI_SQL_QUERY_H_
#define RAFIKI_SQL_QUERY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sql/table.h"

namespace rafiki::sql {

/// A scalar user-defined function (§8: the `food_name(image_path)` UDF that
/// calls the Rafiki inference Web API). Receives the argument cell value
/// and returns the computed value.
using ScalarUdf = std::function<Value(const Value&)>;

/// A row predicate for WHERE clauses.
using Predicate = std::function<bool(const Row&, const Table&)>;

/// Builds a predicate `column <op> constant` with op in {<,<=,>,>=,=,!=}.
/// Dies on unknown column (programming error in a query literal).
Predicate ColumnCompare(const Table& table, const std::string& column,
                        const std::string& op, const Value& constant);

/// One SELECT output column: either a plain column reference or a UDF
/// applied to a column.
struct SelectExpr {
  std::string column;
  ScalarUdf udf{};       // optional; applied to the column value
  std::string alias{};   // output name
};

/// Lazily-evaluated SELECT ... FROM t WHERE pred GROUP BY expr — the query
/// shape of the paper's case study:
///
///   SELECT food_name(image_path) AS name, count(*)
///   FROM foodlog WHERE age > 52 GROUP BY name;
///
/// Key property reproduced from §8: the UDF is evaluated only on rows that
/// SURVIVE the WHERE filter ("the function is executed only on the images
/// of the rows that satisfy the condition... it saves much time"), so the
/// engine counts UDF invocations for verification.
class Query {
 public:
  explicit Query(const Table* table);

  Query& Select(SelectExpr expr);
  Query& Where(Predicate predicate);
  /// Groups by the i-th select expression (0-based) and appends a
  /// `count(*)` output column.
  Query& GroupByCount(size_t select_index);

  struct ResultSet {
    std::vector<std::string> column_names;
    std::vector<Row> rows;
    /// Number of UDF invocations during execution.
    size_t udf_calls = 0;

    std::string ToString() const;
  };

  Result<ResultSet> Execute() const;

 private:
  const Table* table_;
  std::vector<SelectExpr> exprs_;
  std::vector<Predicate> predicates_;
  bool group_by_ = false;
  size_t group_index_ = 0;
};

}  // namespace rafiki::sql

#endif  // RAFIKI_SQL_QUERY_H_
