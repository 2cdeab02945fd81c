// IMDb two-view workload generator (Section 5.1.1).
//
// A seeded movie/person corpus is projected into the paper's two view
// schemas:
//
//   View 1 (DIMDb1): Movie(movie_id, title, release_year, genre, country,
//                    runtimes, gross, budget), Actor(...), Director(...),
//                    MovieActor, MovieDirector. The migration keeps only
//                    ONE genre and country per movie (footnote 12's data
//                    loss) and additionally drops a fraction of movies
//                    and cast links.
//   View 2 (DIMDb2): Movie(m_id, title, release_year),
//                    MovieInfo(m_id, info_type, info),
//                    Person(p_id, name, gender, dob),
//                    MoviePerson(m_id, p_id, role).
//
// (The printed paper schema shows MoviePerson(m_id, p_id); a role column
// is required for Q2's "directed by" to be expressible on view 2, so we
// add it — documented in docs/ARCHITECTURE.md, "Substitutions".)
//
// Both views then receive ~5% BART errors (bart.h) on non-key columns.
// Gold standards are derived per query from the entity-id columns that
// survive in the provenance (eval/gold.h).
//
// The 10 query templates Q1-Q10 of Section 5.1.1 are provided with
// per-view SQL, attribute matches, and entity columns.

#ifndef EXPLAIN3D_DATAGEN_IMDB_H_
#define EXPLAIN3D_DATAGEN_IMDB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/bart.h"
#include "matching/attribute_match.h"
#include "relational/database.h"

namespace explain3d {

/// Corpus scale and perturbation knobs. Paper scale is 3.7M/6.8M tuples;
/// defaults are laptop-sized and benches scale with EXPLAIN3D_SCALE.
struct ImdbOptions {
  size_t num_movies = 2000;
  size_t num_persons = 3000;
  int year_min = 1970;
  int year_max = 2003;
  double view1_movie_loss = 0.03;  ///< movies missing from view 1
  double view1_link_loss = 0.02;   ///< cast/director links missing
  double error_rate = 0.05;        ///< BART error rate on both views
  uint64_t seed = 2024;
};

/// The generated pair of views (already BART-corrupted).
struct ImdbDataset {
  Database view1;
  Database view2;
  std::vector<BartError> errors1, errors2;  ///< gold error logs
};

/// One instantiated query template.
struct ImdbQueryPair {
  std::string name;   ///< "Q1".."Q10"
  std::string description;
  std::string sql1, sql2;
  AttributeMatches attr_matches;
  /// Column of each side's provenance relation carrying the entity id.
  std::string entity_col1, entity_col2;
};

/// Generates the corpus and both views.
Result<ImdbDataset> GenerateImdb(const ImdbOptions& opts);

/// The 10 templates instantiated for a year (Q1-Q9) and genre (Q10).
std::vector<ImdbQueryPair> ImdbTemplates(int year, const std::string& genre);

/// Genres used by the generator (valid Q10 instantiations).
const std::vector<std::string>& ImdbGenres();

}  // namespace explain3d

#endif  // EXPLAIN3D_DATAGEN_IMDB_H_
