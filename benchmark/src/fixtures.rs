//! Pre-trained weights every workload starts from: the DA-GAN encoder
//! (trained on a held-out mixed-condition sample) and the heavyweight
//! teacher (trained on NIGHT-DATA, the streams' first regime).
//!
//! `make-fixtures` trains both deterministically and writes their flat
//! `export_params` buffers; set-up loads them. A file whose length no
//! longer matches the architecture (a later PR changed a layer) is not
//! an error: set-up retrains with the same recipe, which shows in
//! `setup_s`, and warns.

use std::path::{Path, PathBuf};

use odin_data::{Image, SceneGen, Subset};
use odin_detect::Detector;
use odin_gan::{DaGan, DaGanConfig};
use odin_store::crc32;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAGIC: &[u8; 4] = b"ODBF";
const HEADER_LEN: usize = 16;

/// Training recipe. Fixed: changing it changes every workload's
/// starting point, which is a new baseline.
const SEED_DAGAN: u64 = 0xDA6A;
const SEED_TEACHER: u64 = 0x7EAC;
const DAGAN_SAMPLE: usize = 300;
const DAGAN_ITERS: usize = 300;
const TEACHER_SAMPLE: usize = 200;
const TEACHER_ITERS: usize = 400;
const BATCH: usize = 8;

pub const FRAME_SIZE: usize = 48;

fn encode(params: &[f32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(params.len() * 4);
    for p in params {
        payload.extend_from_slice(&p.to_le_bytes());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(params.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Why a fixture file could not be used.
#[derive(Debug, PartialEq, Eq)]
pub enum Unusable {
    Missing,
    Corrupt(&'static str),
    /// The file is intact but holds a different number of parameters
    /// than the architecture now has.
    LengthMismatch {
        file: usize,
        model: usize,
    },
}

fn decode(bytes: &[u8], expected_len: usize) -> Result<Vec<f32>, Unusable> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
        return Err(Unusable::Corrupt("bad header"));
    }
    let len = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if usize::try_from(len).ok().and_then(|n| n.checked_mul(4)) != Some(payload.len()) {
        return Err(Unusable::Corrupt("length field does not match file size"));
    }
    if crc32(payload) != crc {
        return Err(Unusable::Corrupt("checksum mismatch"));
    }
    if len as usize != expected_len {
        return Err(Unusable::LengthMismatch { file: len as usize, model: expected_len });
    }
    Ok(payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

fn load(path: &Path, expected_len: usize) -> Result<Vec<f32>, Unusable> {
    match std::fs::read(path) {
        Ok(bytes) => decode(&bytes, expected_len),
        Err(_) => Err(Unusable::Missing),
    }
}

fn fresh_dagan() -> (DaGan, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED_DAGAN);
    (DaGan::new(DaGanConfig::bdd(), &mut rng), rng)
}

fn train_dagan() -> DaGan {
    let (mut model, mut rng) = fresh_dagan();
    let held_out: Vec<Image> = SceneGen::new(FRAME_SIZE)
        .subset_frames(&mut rng, Subset::Full, DAGAN_SAMPLE)
        .into_iter()
        .map(|f| f.image)
        .collect();
    model.train(&mut rng, &held_out, DAGAN_ITERS, BATCH);
    model
}

fn fresh_teacher() -> (Detector, StdRng) {
    let mut rng = StdRng::seed_from_u64(SEED_TEACHER);
    (Detector::heavy(FRAME_SIZE, &mut rng), rng)
}

fn train_teacher() -> Detector {
    let (mut model, mut rng) = fresh_teacher();
    let frames = SceneGen::new(FRAME_SIZE).subset_frames(&mut rng, Subset::Night, TEACHER_SAMPLE);
    model.train_oracle(&mut rng, &frames, TEACHER_ITERS, BATCH);
    model
}

pub struct Fixtures {
    dir: PathBuf,
}

impl Fixtures {
    pub fn new(benchmark_root: &Path) -> Fixtures {
        Fixtures { dir: benchmark_root.join("fixtures") }
    }

    fn dagan_path(&self) -> PathBuf {
        self.dir.join("dagan_bdd.odbf")
    }

    fn teacher_path(&self) -> PathBuf {
        self.dir.join("teacher_night.odbf")
    }

    /// Trains both models and writes the fixture files.
    pub fn make(&self) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        eprintln!("training DA-GAN ({DAGAN_ITERS} iterations)...");
        std::fs::write(self.dagan_path(), encode(&train_dagan().export_params()))?;
        eprintln!("training teacher on NIGHT-DATA ({TEACHER_ITERS} iterations)...");
        std::fs::write(self.teacher_path(), encode(&train_teacher().export_params()))?;
        Ok(())
    }

    pub fn dagan(&self) -> DaGan {
        let (mut model, _) = fresh_dagan();
        match load(&self.dagan_path(), model.export_len()) {
            Ok(params) => {
                model.import_params(&params);
                model
            }
            Err(why) => {
                warn_retrain("DA-GAN", &self.dagan_path(), &why);
                train_dagan()
            }
        }
    }

    pub fn teacher(&self) -> Detector {
        let (mut model, _) = fresh_teacher();
        match load(&self.teacher_path(), model.export_len()) {
            Ok(params) => {
                model.import_params(&params);
                model
            }
            Err(why) => {
                warn_retrain("teacher", &self.teacher_path(), &why);
                train_teacher()
            }
        }
    }
}

fn warn_retrain(what: &str, path: &Path, why: &Unusable) {
    eprintln!(
        "warning: {what} fixture {} unusable ({why:?}); retraining in set-up — \
         setup_s is inflated, rerun `make-fixtures`",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_checks_length_and_crc() {
        let params = vec![0.5f32, -1.25, 3.0];
        let bytes = encode(&params);
        assert_eq!(decode(&bytes, 3), Ok(params));
        assert_eq!(decode(&bytes, 4), Err(Unusable::LengthMismatch { file: 3, model: 4 }));
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(decode(&flipped, 3), Err(Unusable::Corrupt("checksum mismatch")));
        assert!(matches!(decode(&bytes[..bytes.len() - 1], 3), Err(Unusable::Corrupt(_))));
        assert!(matches!(decode(b"nope", 3), Err(Unusable::Corrupt(_))));
    }

    #[test]
    fn a_missing_file_is_reported_as_missing() {
        assert_eq!(load(Path::new("/nonexistent/odin.odbf"), 1), Err(Unusable::Missing));
    }
}
