// Academic dataset generator (Section 5.1.1, Figure 4).
//
// The paper scrapes the UMass-Amherst / OSU undergraduate-program pages
// and the NCES statistics; those exact files are not redistributable, so
// this generator synthesizes structurally equivalent pairs with the same
// statistical profile (see docs/ARCHITECTURE.md, "Substitutions"):
//
//   University side:  Major(Major, Degree[, Campus], School) — one row per
//                     degree program; majors may repeat across degrees
//                     (COUNT double-counting, the paper's CS B.S./B.A.
//                     example) and include associate-degree programs that
//                     NCES does not track (the summarization example).
//   NCES side:        School(ID, Univ_name, City, Url) and
//                     Stats(ID, Program, bach_degr) — program names at a
//                     coarser granularity with renamed/abbreviated
//                     variants, plus wrong bach_degr values.
//
// Queries: "SELECT COUNT(Major) FROM Major" vs
// "SELECT SUM(bach_degr) FROM School, Stats WHERE
//  Univ_name='<univ>' AND School.ID = Stats.ID", with
// (Major.Major) ⊑ (Stats.Program).

#ifndef EXPLAIN3D_DATAGEN_ACADEMIC_H_
#define EXPLAIN3D_DATAGEN_ACADEMIC_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "eval/gold.h"
#include "matching/attribute_match.h"
#include "relational/database.h"

namespace explain3d {

/// Which dataset pair of Figure 4 to synthesize.
enum class AcademicUniversity { kUMass, kOSU };

/// Generator parameters.
struct AcademicOptions {
  AcademicUniversity univ = AcademicUniversity::kUMass;
  /// NCES School-table size (the paper's NCES dump has 239K rows; the
  /// default keeps examples fast — benches scale it up).
  size_t school_rows = 2000;
  uint64_t seed = 7;
};

/// The generated pair plus entity maps for gold derivation.
struct AcademicDataset {
  Database db_univ;
  Database db_nces;
  std::string sql_univ, sql_nces;
  AttributeMatches attr_matches;
  /// Entity id per distinct university major name / NCES program name.
  std::map<std::string, int64_t> entity_by_major;
  std::map<std::string, int64_t> entity_by_program;
  std::string univ_name;
};

/// Generates one academic dataset pair.
Result<AcademicDataset> GenerateAcademic(const AcademicOptions& opts);

}  // namespace explain3d

#endif  // EXPLAIN3D_DATAGEN_ACADEMIC_H_
