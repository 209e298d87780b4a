//! Binary weight (de)serialisation.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "EASZWT01"                       8 bytes
//! count  u32                              number of tensors
//! per tensor:
//!   name_len u16, name bytes (utf-8)
//!   rank u8, dims u32 * rank
//!   f32 payload (numel * 4 bytes)
//! ```
//!
//! The format is intentionally simple; the model-size claims of the paper
//! (8.7 MB reconstruction network) are measured against this encoding.

use crate::params::ParamSet;
use crate::tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EASZWT01";

/// Error loading or saving a weight file.
#[derive(Debug)]
pub enum WeightsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid weight file.
    Format(String),
    /// The file's tensors do not match the parameter set.
    Mismatch(String),
}

impl fmt::Display for WeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "weights i/o error: {e}"),
            Self::Format(m) => write!(f, "invalid weight file: {m}"),
            Self::Mismatch(m) => write!(f, "weight/parameter mismatch: {m}"),
        }
    }
}

impl Error for WeightsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WeightsError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Serialises all parameters of `params` to `writer`, then flushes it.
///
/// # Errors
///
/// Returns [`WeightsError::Io`] on write or flush failure. The flush is
/// what surfaces a failure a buffered writer would otherwise only meet in
/// its `Drop`, which discards errors.
pub fn save_params<W: Write>(params: &ParamSet, mut writer: W) -> Result<(), WeightsError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&(params.len() as u32).to_le_bytes())?;
    for id in params.ids() {
        let name = params.name(id).as_bytes();
        writer.write_all(&(name.len() as u16).to_le_bytes())?;
        writer.write_all(name)?;
        let t = params.value(id);
        writer.write_all(&[t.rank() as u8])?;
        for &d in t.shape() {
            writer.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in t.data() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Saves parameters to a file path, creating parent directories.
///
/// # Errors
///
/// Returns [`WeightsError::Io`] on filesystem failure.
pub fn save_params_file(params: &ParamSet, path: impl AsRef<Path>) -> Result<(), WeightsError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let file = std::fs::File::create(path)?;
    save_params(params, std::io::BufWriter::new(file))
}

/// Loads weights from `reader` into an existing parameter set.
///
/// Tensors are matched by name; shapes must agree exactly. Extra, repeated
/// or missing tensors are errors so stale caches fail loudly. All or
/// nothing: the file is read and checked whole before the first parameter
/// is overwritten, so on `Err` every parameter keeps the value it had.
///
/// # Errors
///
/// Returns [`WeightsError::Format`] for malformed files and
/// [`WeightsError::Mismatch`] when names/shapes disagree with `params`.
pub fn load_params<R: Read>(params: &mut ParamSet, mut reader: R) -> Result<(), WeightsError> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(WeightsError::Format("bad magic".into()));
    }
    let mut u32b = [0u8; 4];
    reader.read_exact(&mut u32b)?;
    let count = u32::from_le_bytes(u32b) as usize;
    if count != params.len() {
        return Err(WeightsError::Mismatch(format!(
            "file has {count} tensors, parameter set has {}",
            params.len()
        )));
    }
    // Staged, not applied: a file that fails at tensor k must not leave
    // tensors 0..k overwritten.
    let mut staged = Vec::with_capacity(count);
    for _ in 0..count {
        let mut u16b = [0u8; 2];
        reader.read_exact(&mut u16b)?;
        let name_len = u16::from_le_bytes(u16b) as usize;
        let mut name_buf = vec![0u8; name_len];
        reader.read_exact(&mut name_buf)?;
        let name = String::from_utf8(name_buf)
            .map_err(|_| WeightsError::Format("non-utf8 tensor name".into()))?;
        let mut rank_b = [0u8; 1];
        reader.read_exact(&mut rank_b)?;
        let rank = rank_b[0] as usize;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            reader.read_exact(&mut u32b)?;
            shape.push(u32::from_le_bytes(u32b) as usize);
        }
        // Name and shape are judged before the data is read, so a damaged
        // shape never sizes an allocation.
        let id = params
            .id_of(&name)
            .ok_or_else(|| WeightsError::Mismatch(format!("unknown tensor {name:?}")))?;
        if params.value(id).shape() != shape.as_slice() {
            return Err(WeightsError::Mismatch(format!(
                "tensor {name:?}: file shape {:?} vs param shape {:?}",
                shape,
                params.value(id).shape()
            )));
        }
        if staged.iter().any(|(seen, _)| *seen == id) {
            return Err(WeightsError::Mismatch(format!("tensor {name:?} appears twice")));
        }
        let mut data = vec![0f32; params.value(id).numel()];
        let mut f32b = [0u8; 4];
        for v in data.iter_mut() {
            reader.read_exact(&mut f32b)?;
            *v = f32::from_le_bytes(f32b);
        }
        staged.push((id, Tensor::from_vec(data, &shape)));
    }
    for (id, tensor) in staged {
        *params.value_mut(id) = tensor;
    }
    Ok(())
}

/// Loads weights from a file path into an existing parameter set.
///
/// # Errors
///
/// See [`load_params`].
pub fn load_params_file(params: &mut ParamSet, path: impl AsRef<Path>) -> Result<(), WeightsError> {
    let file = std::fs::File::open(path)?;
    load_params(params, std::io::BufReader::new(file))
}

/// Total on-disk size of a parameter set under this format, in bytes.
pub fn serialized_size(params: &ParamSet) -> usize {
    let mut size = 8 + 4;
    for id in params.ids() {
        size += 2 + params.name(id).len();
        size += 1 + 4 * params.value(id).rank();
        size += 4 * params.value(id).numel();
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    fn sample_params() -> ParamSet {
        let mut p = ParamSet::new();
        let mut r = init::rng(11);
        p.add("a.w", init::uniform(&mut r, &[3, 4], -1.0, 1.0));
        p.add("a.b", init::uniform(&mut r, &[4], -1.0, 1.0));
        p.add("scalarish", Tensor::scalar(2.5));
        p
    }

    #[test]
    fn round_trip_preserves_values() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).expect("save");
        assert_eq!(buf.len(), serialized_size(&p));

        let mut q = sample_params();
        // Perturb before loading to prove load overwrites.
        q.value_mut(q.id_of("a.w").unwrap()).data_mut()[0] = 99.0;
        load_params(&mut q, &buf[..]).expect("load");
        for id in p.ids() {
            assert_eq!(p.value(id), q.value(id), "tensor {}", p.name(id));
        }
    }

    /// Fails every flush, and every write too when `fail_writes` is set.
    struct FailingSink {
        fail_writes: bool,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail_writes {
                return Err(std::io::Error::other("disk full"));
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_failed_flush_fails_the_save() {
        let p = sample_params();
        let err = save_params(&p, FailingSink { fail_writes: false }).unwrap_err();
        assert!(matches!(err, WeightsError::Io(_)), "{err}");
        // The `save_params_file` shape: a buffered writer holds the whole
        // (small) file, so the failing write only happens at the flush.
        let sink = std::io::BufWriter::new(FailingSink { fail_writes: true });
        let err = save_params(&p, sink).unwrap_err();
        assert!(matches!(err, WeightsError::Io(_)), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut p = sample_params();
        let err = load_params(&mut p, &b"NOTMAGIC rest"[..]).unwrap_err();
        assert!(matches!(err, WeightsError::Format(_)), "{err}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).expect("save");
        let mut q = ParamSet::new();
        let mut r = init::rng(11);
        q.add("a.w", init::uniform(&mut r, &[4, 3], -1.0, 1.0)); // transposed shape
        q.add("a.b", init::uniform(&mut r, &[4], -1.0, 1.0));
        q.add("scalarish", Tensor::scalar(0.0));
        let err = load_params(&mut q, &buf[..]).unwrap_err();
        assert!(matches!(err, WeightsError::Mismatch(_)), "{err}");
    }

    /// Three tensors, the last two of one shape, drawn from `seed`.
    fn same_shaped_tail(seed: u64) -> ParamSet {
        let mut p = ParamSet::new();
        let mut r = init::rng(seed);
        p.add("a.w", init::uniform(&mut r, &[3, 4], -1.0, 1.0));
        p.add("a.b", init::uniform(&mut r, &[4], -1.0, 1.0));
        p.add("c.b", init::uniform(&mut r, &[4], -1.0, 1.0));
        p
    }

    fn bits(p: &ParamSet) -> Vec<Vec<u32>> {
        p.ids().map(|id| p.value(id).data().iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn a_failed_load_leaves_every_param_untouched() {
        let mut good = Vec::new();
        save_params(&same_shaped_tail(11), &mut good).expect("save");
        let last_name = good.windows(3).rposition(|w| w == b"c.b").expect("last name");
        // (a) Cut inside the last tensor's data.
        let truncated = good[..good.len() - 2].to_vec();
        // (b) The last name altered to one the set does not hold.
        let mut unknown = good.clone();
        unknown[last_name] = b'x';
        // (c) The last name altered to an earlier one of the same shape:
        // the count still matches, and `c.b` would keep its old value.
        let mut repeated = good.clone();
        repeated[last_name] = b'a';
        for (case, bytes) in
            [("truncated", truncated), ("unknown", unknown), ("repeated", repeated)]
        {
            let mut q = same_shaped_tail(99);
            let before = bits(&q);
            assert!(load_params(&mut q, &bytes[..]).is_err(), "{case}: the load must fail");
            assert_eq!(bits(&q), before, "{case}: a failed load must not touch any param");
        }
        // The undamaged file still loads whole.
        let mut q = same_shaped_tail(99);
        load_params(&mut q, &good[..]).expect("load");
        assert_eq!(bits(&q), bits(&same_shaped_tail(11)));
    }

    #[test]
    fn count_mismatch_rejected() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).expect("save");
        let mut q = ParamSet::new();
        q.add("only", Tensor::scalar(0.0));
        let err = load_params(&mut q, &buf[..]).unwrap_err();
        assert!(matches!(err, WeightsError::Mismatch(_)), "{err}");
    }
}
