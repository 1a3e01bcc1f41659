//! Loading and saving ratings files.
//!
//! Supports the de-facto standard `user, item, rating` triple format used by
//! the MovieLens and Amazon dumps (comma-, tab- or whitespace-separated),
//! with the paper's preprocessing: keep ratings strictly above a
//! binarization threshold (3.0 in the paper) and drop users with fewer than
//! a minimum number of ratings (20 in the paper). If the real datasets are
//! available on disk they can be plugged straight into the reproduction
//! harness; otherwise the synthetic generators are used.

use crate::dataset::{Dataset, DatasetBuilder, ItemId};
use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors raised while parsing a ratings file.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that does not parse as `user item rating`.
    Parse { line: usize, content: String },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "line {line}: cannot parse rating triple from {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Preprocessing options applied while loading (paper defaults).
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Keep ratings strictly greater than this value (paper: 3.0).
    pub binarize_above: f64,
    /// Drop users with fewer than this many kept ratings (paper: 20).
    pub min_profile: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { binarize_above: 3.0, min_profile: 20 }
    }
}

/// A loaded ratings file: the dataset and the file's own names of its
/// users and items.
#[derive(Clone, Debug)]
pub struct Ratings {
    /// The binarized, filtered profiles, densely numbered.
    pub dataset: Dataset,
    /// The file's name of each kept user, in dataset order (`users[u]`
    /// is user `u`).
    pub users: Vec<String>,
    /// The file's name of each item, in dataset order (`items[i]` is item
    /// `i`).
    pub items: Vec<String>,
}

/// Parses `user <sep> item <sep> rating` triples from a reader.
///
/// Separators may be commas, tabs or runs of spaces (the `::` separator of
/// the raw MovieLens dumps is also accepted). Lines starting with `#` and
/// blank lines are skipped, and so is a header: the first other line, when
/// its rating field is not a number (MovieLens 20M's `ratings.csv` starts
/// with `userId,movieId,rating,timestamp`). Any later line that does not
/// parse is an [`IoError::Parse`]. External user/item identifiers are
/// arbitrary strings, densely re-numbered in first-appearance order; the
/// same pass returns them ([`Ratings::users`], [`Ratings::items`]), so a
/// caller can speak the file's names.
pub fn read_ratings<R: Read>(reader: R, options: LoadOptions) -> Result<Ratings, IoError> {
    let reader = BufReader::new(reader);
    let mut user_ids: HashMap<String, u32> = HashMap::new();
    let mut item_ids: HashMap<String, u32> = HashMap::new();
    let (mut user_names, mut item_names) = (Vec::new(), Vec::new());
    let mut profiles: Vec<Vec<ItemId>> = Vec::new();
    let mut first_record = true;

    for (line_no, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let may_be_header = std::mem::replace(&mut first_record, false);
        let normalized = trimmed.replace("::", " ");
        let mut fields = normalized
            .split(|c: char| c == ',' || c == '\t' || c.is_whitespace())
            .filter(|f| !f.is_empty());
        let (user, item, rating) = match (fields.next(), fields.next(), fields.next()) {
            (Some(u), Some(i), Some(r)) => (u, i, r),
            _ => return Err(IoError::Parse { line: line_no + 1, content: line.clone() }),
        };
        // `nan`, `inf` and out-of-range literals such as `1e400` parse as
        // `f64`, and `NaN <= binarize_above` is false: reject them here so
        // they are not kept as positive ratings.
        let rating = match rating.parse::<f64>() {
            Ok(rating) if rating.is_finite() => rating,
            Err(_) if may_be_header => continue,
            _ => return Err(IoError::Parse { line: line_no + 1, content: line.clone() }),
        };
        if rating <= options.binarize_above {
            continue;
        }
        let uid = *user_ids.entry(user.to_owned()).or_insert_with(|| {
            user_names.push(user.to_owned());
            profiles.push(Vec::new());
            profiles.len() as u32 - 1
        });
        let iid = *item_ids.entry(item.to_owned()).or_insert_with(|| {
            item_names.push(item.to_owned());
            item_names.len() as u32 - 1
        });
        profiles[uid as usize].push(iid);
    }

    let num_items = item_names.len() as u32;
    let mut builder = DatasetBuilder::with_capacity(profiles.len());
    let mut users = Vec::with_capacity(profiles.len());
    for (mut profile, name) in profiles.into_iter().zip(user_names) {
        profile.sort_unstable();
        profile.dedup();
        if profile.len() >= options.min_profile {
            builder.push_sorted_profile(&profile);
            users.push(name);
        }
    }
    Ok(Ratings { dataset: builder.build_with_min_items(num_items), users, items: item_names })
}

/// Loads a ratings file from disk with [`read_ratings`].
pub fn load_ratings<P: AsRef<Path>>(path: P, options: LoadOptions) -> Result<Ratings, IoError> {
    let file = std::fs::File::open(path)?;
    read_ratings(file, options)
}

/// Writes a dataset back out as `user\titem\t5` triples (all ratings are
/// positive after binarization, so a constant rating is emitted — the same
/// convention the paper uses for DBLP and Gowalla).
pub fn write_ratings<W: Write>(dataset: &Dataset, writer: &mut W) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(writer);
    for (u, profile) in dataset.iter() {
        for &item in profile {
            writeln!(out, "{u}\t{item}\t5")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(binarize_above: f64, min_profile: usize) -> LoadOptions {
        LoadOptions { binarize_above, min_profile }
    }

    #[test]
    fn parses_comma_separated_triples() {
        let data = "u1,i1,5\nu1,i2,4\nu2,i1,5\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(ds.num_users(), 2);
        assert_eq!(ds.num_items(), 2);
        assert_eq!(ds.profile(0), &[0, 1]);
        assert_eq!(ds.profile(1), &[0]);
    }

    #[test]
    fn parses_tab_and_movielens_double_colon() {
        let data = "1::10::4.5\n1\t11\t5\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(ds.num_users(), 1);
        assert_eq!(ds.profile(0).len(), 2);
    }

    #[test]
    fn binarization_drops_low_ratings() {
        let data = "u,i1,3\nu,i2,3.5\nu,i3,1\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(ds.num_ratings(), 1);
    }

    #[test]
    fn min_profile_filter_applies_after_binarization() {
        let data = "a,i1,5\na,i2,5\nb,i1,5\nb,i2,2\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 2)).unwrap().dataset;
        // User b keeps only one rating after binarization and is dropped.
        assert_eq!(ds.num_users(), 1);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let data = "# header\n\nu,i,5\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(ds.num_ratings(), 1);
    }

    #[test]
    fn a_header_is_skipped_on_the_first_record_only() {
        let data = "# MovieLens 20M\n\nuserId,movieId,rating,timestamp\n1,10,4.5,1112486027\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!((ds.num_users(), ds.num_ratings()), (1, 1));
        // A header-like line past the first record is still an error.
        let data = "userId,movieId,rating\n1,10,4.5\nuserId,movieId,rating\n";
        match read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap_err() {
            IoError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other}"),
        }
        // A first record whose rating is a number but not finite is no header.
        match read_ratings("u,i,nan\n".as_bytes(), opts(3.0, 1)).unwrap_err() {
            IoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let data = "u,i,5\nnot-a-triple\n";
        let err = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn non_finite_ratings_report_their_line_number() {
        for rating in ["nan", "inf", "1e400"] {
            let data = format!("u,i,5\nu,j,{rating}\n");
            match read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap_err() {
                IoError::Parse { line, content } => {
                    assert_eq!((line, content), (2, format!("u,j,{rating}")))
                }
                other => panic!("{rating}: expected parse error, got {other}"),
            }
        }
    }

    #[test]
    fn duplicate_ratings_collapse() {
        let data = "u,i,5\nu,i,4\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(ds.num_ratings(), 1);

        // Out of order and duplicated between other items: the profile is
        // sorted and deduplicated once, before the builder sees it, and
        // the size filter counts distinct items.
        let data = "u,j,5\nu,i,5\nu,j,4\nu,k,5\nu,i,5\nv,i,5\nv,i,5\n";
        let ds = read_ratings(data.as_bytes(), opts(3.0, 2)).unwrap().dataset;
        ds.validate().unwrap();
        assert_eq!(ds.num_users(), 1, "v holds one distinct item");
        assert_eq!(ds.profile(0), &[0, 1, 2]);
    }

    #[test]
    fn the_files_names_come_back_in_dataset_order() {
        // carol's one rating falls under min_profile and her user is
        // dropped; her item is still numbered, in first-appearance order.
        // A rating binarized away names no item.
        let data = "alice,m1,5\nbob,m2,5\ncarol,m3,5\nalice,m2,5\nbob,m1,4\nalice,m9,1\n";
        let ratings = read_ratings(data.as_bytes(), opts(3.0, 2)).unwrap();
        assert_eq!(ratings.users, ["alice", "bob"]);
        assert_eq!(ratings.items, ["m1", "m2", "m3"]);
        assert_eq!(ratings.dataset.num_users(), 2);
        assert_eq!(ratings.dataset.num_items(), 3);
        assert_eq!(ratings.dataset.profile(1), &[0, 1], "bob rated m2, then m1");
    }

    #[test]
    fn round_trip_through_write_ratings() {
        let ds = Dataset::from_profiles(vec![vec![0, 2], vec![1]], 0);
        let mut buffer = Vec::new();
        write_ratings(&ds, &mut buffer).unwrap();
        let reloaded = read_ratings(buffer.as_slice(), opts(3.0, 1)).unwrap().dataset;
        assert_eq!(reloaded.num_users(), ds.num_users());
        assert_eq!(reloaded.num_ratings(), ds.num_ratings());
    }
}
