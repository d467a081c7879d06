//! The element type as a type parameter: [`Element`] ties a [`Scalar`]
//! to the [`Dtype`] tag archives record and to its little-endian raw
//! encoding (raw rasters on disk, field payloads on the wire).

use crate::archive::Dtype;
use crate::error::CuszpError;
use cuszp_predictor::Scalar;
use std::collections::TryReserveError;
use std::io;
use std::path::Path;

/// A field element type: `f32` or `f64`.
pub trait Element: Scalar {
    /// The tag archives store for this type.
    const DTYPE: Dtype;
    /// Writes the little-endian bytes into a `BYTES`-long slot.
    fn write_le(self, out: &mut [u8]);
    /// Reads a value from a `BYTES`-long little-endian slot.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! element {
    ($t:ty, $dtype:expr) => {
        impl Element for $t {
            const DTYPE: Dtype = $dtype;
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("BYTES-long slot"))
            }
        }
    };
}
element!(f32, Dtype::F32);
element!(f64, Dtype::F64);

/// Scalars → their little-endian bytes.
pub fn scalars_to_le<T: Element>(data: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; data.len() * T::BYTES];
    for (dst, x) in out.chunks_exact_mut(T::BYTES).zip(data) {
        x.write_le(dst);
    }
    out
}

/// Little-endian bytes → scalars (a trailing partial element is
/// ignored). The length may come from a peer or a file, so the
/// allocation is fallible.
pub fn scalars_from_le<T: Element>(bytes: &[u8]) -> Result<Vec<T>, TryReserveError> {
    let mut out: Vec<T> = Vec::new();
    out.try_reserve_exact(bytes.len() / T::BYTES)?;
    out.extend(bytes.chunks_exact(T::BYTES).map(T::read_le));
    Ok(out)
}

/// Writes a field as a raw little-endian raster (SDRBench's convention:
/// dimensions travel out of band).
pub fn write_raw<T: Element>(path: &Path, data: &[T]) -> io::Result<()> {
    std::fs::write(path, scalars_to_le(data))
}

/// Reads a raw little-endian raster of `T` in full. A file that is not a
/// whole number of elements is refused.
pub fn read_raw<T: Element>(path: &Path) -> io::Result<Vec<T>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % T::BYTES != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "file size {} is not a multiple of {}",
                bytes.len(),
                T::BYTES
            ),
        ));
    }
    scalars_from_le(&bytes).map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e))
}

/// The typed refusal every decode path gives when the archive stores a
/// different element type than the caller's `T`.
pub(crate) fn check_dtype<T: Element>(stored: Dtype) -> Result<(), CuszpError> {
    if stored == T::DTYPE {
        return Ok(());
    }
    Err(CuszpError::DtypeMismatch {
        stored: stored.name(),
        requested: T::DTYPE.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_round_trip_and_partial_tail() {
        let xs = [1.5f32, -0.0, f32::MAX];
        let bytes = scalars_to_le(&xs);
        assert_eq!(bytes.len(), 12);
        assert_eq!(&bytes[..4], &1.5f32.to_le_bytes());
        assert_eq!(scalars_from_le::<f32>(&bytes).unwrap(), xs);
        assert_eq!(scalars_from_le::<f32>(&bytes[..11]).unwrap(), xs[..2]);
        let ys = [std::f64::consts::PI, -1e300];
        assert_eq!(scalars_from_le::<f64>(&scalars_to_le(&ys)).unwrap(), ys);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cuszp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn raw_round_trip() {
        let path = scratch("field.raw");
        let data: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
        write_raw(&path, &data).unwrap();
        assert_eq!(read_raw::<f32>(&path).unwrap(), data);
        let wide: Vec<f64> = data.iter().map(|&x| f64::from(x) * 1e-9).collect();
        write_raw(&path, &wide).unwrap();
        assert_eq!(read_raw::<f64>(&path).unwrap(), wide);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn odd_sized_file_is_rejected() {
        let path = scratch("bad.raw");
        std::fs::write(&path, [1u8, 2, 3]).unwrap();
        assert!(read_raw::<f32>(&path).is_err());
        // 12 bytes: three f32, but not a whole number of f64.
        std::fs::write(&path, [0u8; 12]).unwrap();
        assert_eq!(read_raw::<f32>(&path).unwrap(), [0.0; 3]);
        let err = read_raw::<f64>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a multiple of 8"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
