//! FTC008 fixture: a `// ft-check: hot` fn whose signature holds an
//! array type. The `;` inside `[f64; 4]` must not end the signature
//! scan, or the fn loses its body and the allocation below goes unseen.

// ft-check: hot
pub fn hot_array(x: &mut [f64; 4]) -> [usize; 2] {
    let scratch = vec![0.0; x.len()];
    for (v, s) in x.iter_mut().zip(&scratch) {
        *v += *s;
    }
    [0, 1]
}
